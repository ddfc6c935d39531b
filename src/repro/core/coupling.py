"""Client-side coupling helpers: the replicated couple table (§3.2).

"In a group of coupled objects, the coupling information is replicated for
each object (to be completely available locally)."  Replication is owed
*inside the group*: an application instance mirrors the groups its own
objects belong to — the only ones it ever asks about — and the server
sends a COUPLE_UPDATE to the instances holding a member of the affected
group, nobody else.  The replica answers the hot-path question — *is this
object coupled at all?* — without a server round trip, so purely local
interaction stays local.

Because an instance stops hearing about a group the moment it leaves it,
a replica **forgets** every group that holds none of its own objects
right after applying an update; what it no longer hears about it cannot
keep.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.errors import NoSuchCoupleError
from repro.server.couples import CoupleLink, CoupleTable


def apply_couple_update(
    table: CoupleTable, payload: Mapping[str, Any], owner: Optional[str] = None
) -> Optional[CoupleLink]:
    """Apply one COUPLE_UPDATE onto a replica of the couple table.

    *owner* is the instance the replica belongs to: afterwards the
    replica keeps only groups holding one of its objects.  ``None`` is
    the cluster router's mirror, which holds the whole relation.

    Returns the affected link (None for no-op updates).  Updates are
    idempotent: the same update may arrive twice, and a removal may name
    a link the replica has already forgotten.
    """
    action = payload.get("action")
    link_wire = payload.get("link")
    if action == "noop" or not link_wire:
        return None
    link = CoupleLink.from_wire(dict(link_wire))
    if action == "add":
        table.add_link(link)
        # A joiner's copy carries the other side's pre-merge links, which
        # it has never seen (idempotent — add_link skips known links).
        for joined_link_wire in payload.get("links", ()):
            table.add_link(CoupleLink.from_wire(dict(joined_link_wire)))
    elif action == "remove":
        try:
            table.remove_link(link.source, link.target)
        except NoSuchCoupleError:
            pass  # Already removed or forgotten locally (idempotent).
    else:
        raise ValueError(f"unknown couple update action {action!r}")
    if owner is not None:
        # Only the groups of the two ends changed; a removal may have
        # split one off that holds nothing of ours any more.
        for end in (link.source, link.target):
            if table.is_coupled(end) and not table.group_has_instance(end, owner):
                table.extract_objects(table.group_of(end))
    return link


def bootstrap_replica(table: CoupleTable, links_wire: Any) -> int:
    """Initialize a fresh replica from the REGISTER_ACK couple dump (the
    server sends the registering instance's share of the table only)."""
    count = 0
    for link_wire in links_wire or ():
        link = CoupleLink.from_wire(dict(link_wire))
        if table.add_link(link):
            count += 1
    return count


def subtree_is_coupled(table: CoupleTable, instance_id: str, pathname: str) -> bool:
    """Whether any object at or below *pathname* participates in a couple."""
    prefix = pathname.rstrip("/") + "/"
    for gid in table.objects_of_instance(instance_id):
        if gid[1] == pathname or gid[1].startswith(prefix):
            return True
    return False
