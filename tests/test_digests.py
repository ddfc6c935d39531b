"""Literal pins of every digest a deployment computes.

Structure fingerprints travel in ``sync.fp`` and are compared between
processes, snapshot digests sit in journals on disk, and ring positions
decide which shard owns a couple group.  A process computing any of them
differently would split a mixed fleet or orphan a journal, so each is
pinned to the value the hashlib-based code computed.  The snapshot
digest's pins are in ``tests/persist/test_snapshot.py``.
"""

import pytest

from repro.cluster.hashring import HashRing, _position
from repro.core.instance import _blob_fingerprint
from repro.toolkit.builder import spec_fingerprint

SPEC = {
    "type": "Shell",
    "name": "form",
    "children": [
        {"type": "TextField", "name": "title"},
        {"type": "Canvas", "name": "sketch", "children": []},
    ],
}


def test_spec_fingerprint_is_pinned():
    assert spec_fingerprint(SPEC) == "5a1858a6060a14afe460347a536e65c6fc5010bc"


def test_blob_fingerprint_is_pinned():
    blob = {"notes": ["a", "b"], "count": 3}
    assert _blob_fingerprint(blob) == "a02b2a8544c76c3714d8ff16bab3d450b1ae722d"


@pytest.mark.parametrize(
    "key, position, shard",
    [
        ("", 16476032584258269876, "shard-0"),
        ("a:/app/x", 741733492182651738, "shard-2"),
        ("c:/app/z", 16680761571267889133, "shard-0"),
        ("i05:/ui/field", 15985802820508928050, "shard-1"),
        ("alice", 5614559425216174729, "shard-2"),
    ],
)
def test_ring_position_and_owner_are_pinned(key, position, shard):
    assert _position(key) == position
    assert HashRing(["shard-0", "shard-1", "shard-2"]).node_for(key) == shard
