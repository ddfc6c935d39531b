"""Dynamic grouping: named couple groups managed at run time (§2.2).

"In our approach, we support dynamic grouping, in that we allow each
participant to couple selectively with other participants.  These group
connections can be defined at runtime."

:class:`CouplingGroup` packages the pattern every application re-invents:
a named set of corresponding object paths shared by a dynamic set of
member instances.  The coordinator (any instance, e.g. the classroom
teacher) adds and removes members with RemoteCouple/RemoteDecouple; the
group keeps a *star topology* anchored at its first member, so the
transitive closure (§3.2) joins everyone while membership changes stay
O(paths) operations.

The anchor is re-elected automatically when it leaves — remaining members
are re-coupled to the new anchor so the group survives.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.instance import ApplicationInstance
from repro.errors import CouplingError


class CouplingGroup:
    """A named, dynamically changing couple group over fixed object paths.

    Parameters
    ----------
    coordinator:
        The instance issuing the Remote\\* operations (need not be a
        member itself — §3.3: "allow a third application instance to
        couple objects in remote instances").
    name:
        Human-readable group label (diagnostics only).
    paths:
        The corresponding object paths every member exposes.  Per-member
        path overrides support heterogeneous environments.
    """

    def __init__(
        self,
        coordinator: ApplicationInstance,
        name: str,
        paths: Sequence[str],
    ):
        if not paths:
            raise ValueError("a coupling group needs at least one path")
        self.coordinator = coordinator
        self.name = name
        self.paths: Tuple[str, ...] = tuple(paths)
        #: member instance id -> its path mapping (shared path -> local path).
        self._members: Dict[str, Dict[str, str]] = {}
        self._anchor: Optional[str] = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def anchor(self) -> Optional[str]:
        """The member every other member is star-coupled to."""
        return self._anchor

    def __contains__(self, instance_id: object) -> bool:
        return instance_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    def add_member(
        self,
        instance_id: str,
        path_overrides: Optional[Dict[str, str]] = None,
    ) -> None:
        """Join *instance_id* to the group.

        *path_overrides* maps shared paths to the member's local paths for
        heterogeneous environments (e.g. the teacher's ``/teacher/notes``
        corresponds to a student's ``/student/exercise/answer``).
        """
        if instance_id in self._members:
            raise CouplingError(
                f"{instance_id!r} is already in group {self.name!r}"
            )
        mapping = {path: path for path in self.paths}
        if path_overrides:
            unknown = set(path_overrides) - set(self.paths)
            if unknown:
                raise ValueError(
                    f"overrides for paths outside the group: {sorted(unknown)}"
                )
            mapping.update(path_overrides)
        if self._anchor is None:
            # First member: nothing to couple yet.
            self._members[instance_id] = mapping
            self._anchor = instance_id
            return
        self._couple_to_anchor(instance_id, mapping)
        self._members[instance_id] = mapping

    def remove_member(self, instance_id: str) -> None:
        """Remove *instance_id*; re-anchors the star if needed."""
        if instance_id not in self._members:
            raise CouplingError(
                f"{instance_id!r} is not in group {self.name!r}"
            )
        assert self._anchor is not None
        if instance_id != self._anchor:
            self._decouple_from_anchor(instance_id, self._members[instance_id])
            del self._members[instance_id]
            return
        # The anchor leaves: detach everyone from it, elect a new anchor,
        # and rebuild the star.
        departing = instance_id
        for member, mapping in self._members.items():
            if member != departing:
                self._decouple_from_anchor(member, mapping)
        del self._members[departing]
        self._anchor = next(iter(self._members), None)
        if self._anchor is not None:
            for member, mapping in self._members.items():
                if member != self._anchor:
                    self._couple_to_anchor(member, mapping)

    def dissolve(self) -> None:
        """Remove every member (the group object stays reusable)."""
        for member in list(self._members):
            if len(self._members) == 1:
                self._members.clear()
                self._anchor = None
                break
            self.remove_member(member)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _anchor_gid(self, shared_path: str) -> Tuple[str, str]:
        assert self._anchor is not None
        return (self._anchor, self._members[self._anchor][shared_path])

    def _couple_to_anchor(self, instance_id: str, mapping: Dict[str, str]) -> None:
        for shared_path in self.paths:
            self.coordinator.remote_couple(
                self._anchor_gid(shared_path),
                (instance_id, mapping[shared_path]),
            )

    def _decouple_from_anchor(self, instance_id: str, mapping: Dict[str, str]) -> None:
        for shared_path in self.paths:
            self.coordinator.remote_decouple(
                self._anchor_gid(shared_path),
                (instance_id, mapping[shared_path]),
            )

    def __repr__(self) -> str:
        return (
            f"CouplingGroup({self.name!r}, members={list(self._members)}, "
            f"anchor={self._anchor!r})"
        )
