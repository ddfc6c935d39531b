"""Consistent hashing: couple-group ids -> shard ids.

The cluster router partitions couple groups across shards.  A plain
``hash(key) % n`` would remap almost every key when a shard is added or
removed; a consistent-hash ring with virtual nodes remaps only the keys
that land on the changed shard's arcs — on average ``1/(n+1)`` of them —
while the virtual nodes keep the load within a small factor of uniform.

The hash is BLAKE2b (stable across processes and Python versions, unlike
the builtin ``hash``), so a key's owner is a pure function of the shard
set — any router replica computes the same placement.
"""

from __future__ import annotations

import bisect
# Not hashlib: importing it maps OpenSSL's libcrypto into the process.
from _blake2 import blake2b
from collections import Counter
from typing import Dict, Iterable, List, Tuple


def _position(key: str) -> int:
    """A stable 64-bit ring position for *key*."""
    digest = blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring mapping string keys to node (shard) ids.

    Parameters
    ----------
    nodes:
        Initial node ids.
    vnodes:
        Virtual nodes per physical node.  More virtual nodes flatten the
        load distribution (the per-shard share concentrates around
        ``1/n``) at the cost of a larger ring.
    """

    def __init__(self, nodes: Iterable[str] = (), *, vnodes: int = 64):
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self._vnodes = vnodes
        #: Sorted ``(position, node)`` pairs — the ring.
        self._ring: List[Tuple[int, str]] = []
        self._nodes: set = set()
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_node(self, node: str) -> None:
        """Insert *node* at its ``vnodes`` ring positions."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for replica in range(self._vnodes):
            bisect.insort(self._ring, (_position(f"{node}#{replica}"), node))

    def remove_node(self, node: str) -> None:
        """Remove *node*; its keys fall to their ring successors."""
        if node not in self._nodes:
            raise ValueError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        self._ring = [entry for entry in self._ring if entry[1] != node]

    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The node owning *key*: the first vnode clockwise of its hash."""
        if not self._ring:
            raise ValueError("hash ring has no nodes")
        position = _position(key)
        index = bisect.bisect_right(self._ring, (position, "￿"))
        if index == len(self._ring):
            index = 0  # wrap around the ring
        return self._ring[index][1]

    def distribution(self, keys: Iterable[str]) -> Dict[str, int]:
        """Key count per node — diagnostics for balance checks."""
        counts: Counter = Counter({node: 0 for node in self._nodes})
        for key in keys:
            counts[self.node_for(key)] += 1
        return dict(counts)
