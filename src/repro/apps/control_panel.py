"""The interactive coupling control panel (§4).

"For initiating a joint session, we provide an interactive interface for a
procedure that essentially consists of (1) selecting a student (or group
of students) with which the teacher's environment is to be coupled from a
graphical menu that shows the classroom situation in stylized form, and
(2) selecting the UI objects to be coupled from a (potentially simplified)
graphical representation of the student's environment. ... Dynamic
coupling and decoupling is based on the remote operations
RemoteCouple/RemoteDecouple since it is initiated from outside the
respective applications."

:class:`CouplingControlPanel` is that interface, built from the same
toolkit it controls: a participant list (fed from the server roster), an
object list (fed by fetching the selected participant's widget structure),
and couple/decouple buttons that issue the remote operations.  It is
generic — "it can be used for a variety of COSOFT applications" — because
it operates purely on rosters, structures and global object ids.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.instance import ApplicationInstance
from repro.errors import ReproError
from repro.server.couples import GlobalId
from repro.toolkit.builder import build
from repro.toolkit.events import ACTIVATE, SELECTION_CHANGED
from repro.toolkit.widget import UIObject

#: Pre-declared correspondences: (panel owner's local path per remote
#: path), see §4 "application-specific correspondences ... have to be
#: declared on beforehand".
CorrespondenceMap = Mapping[str, str]


def panel_spec() -> Dict[str, Any]:
    return {
        "type": "shell",
        "name": "panel",
        "state": {"title": "Coupling control"},
        "children": [
            {
                "type": "form",
                "name": "participants",
                "state": {"title": "Classroom"},
                "children": [
                    {"type": "label", "name": "caption",
                     "state": {"text": "Participants", "x": 0, "y": 0}},
                    {"type": "listbox", "name": "roster",
                     "state": {"width": 30, "x": 0, "y": 1}},
                    {"type": "pushbutton", "name": "refresh",
                     "state": {"label": "Refresh", "x": 0, "y": 8}},
                ],
            },
            {
                "type": "form",
                "name": "objects",
                "state": {"title": "Their environment"},
                "children": [
                    {"type": "label", "name": "caption",
                     "state": {"text": "Couplable objects", "x": 34, "y": 0}},
                    {"type": "listbox", "name": "tree",
                     "state": {"width": 40, "x": 34, "y": 1,
                               "selection_policy": "multiple"}},
                    {"type": "pushbutton", "name": "couple",
                     "state": {"label": "Couple", "x": 34, "y": 10}},
                    {"type": "pushbutton", "name": "decouple",
                     "state": {"label": "Decouple", "x": 44, "y": 10}},
                ],
            },
            {"type": "label", "name": "status",
             "state": {"text": "select a participant", "x": 0, "y": 12,
                       "width": 70}},
        ],
    }


class CouplingControlPanel:
    """An interactive front end for dynamic coupling/decoupling.

    Parameters
    ----------
    instance:
        The controlling instance (the teacher's).  It issues the
        RemoteCouple/RemoteDecouple requests, so it may couple objects of
        *any* two instances — including its own environment and a
        student's.
    correspondences:
        remote-path -> local-path mapping: when the operator couples a
        student object that has a declared counterpart in the controller's
        own environment, the counterpart is used as the other endpoint.
        Paths without a declaration are coupled to themselves in the
        controller's environment (homogeneous layouts).
    """

    def __init__(
        self,
        instance: ApplicationInstance,
        *,
        correspondences: Optional[CorrespondenceMap] = None,
        root_name: str = "panel",
    ):
        self.instance = instance
        self.correspondences: Dict[str, str] = dict(correspondences or {})
        spec = panel_spec()
        spec["name"] = root_name
        self.ui: UIObject = instance.add_root(build(spec))
        self._root_name = root_name
        self._participants: List[str] = []
        self._object_paths: List[str] = []
        self._selected_participant: Optional[str] = None
        #: (remote gid, local gid) pairs currently coupled via this panel.
        self.active_links: List[Tuple[GlobalId, GlobalId]] = []
        self._wire()
        self.refresh_roster()

    # ------------------------------------------------------------------
    # Widget accessors
    # ------------------------------------------------------------------

    def _w(self, rel: str) -> UIObject:
        return self.ui.find(rel)

    @property
    def roster_list(self) -> UIObject:
        return self._w("participants/roster")

    @property
    def tree_list(self) -> UIObject:
        return self._w("objects/tree")

    @property
    def status_text(self) -> str:
        return str(self._w("status").get("text"))

    def _set_status(self, text: str) -> None:
        self._w("status").set("text", text)

    # ------------------------------------------------------------------
    # Step 1: participants ("the classroom situation in stylized form")
    # ------------------------------------------------------------------

    def refresh_roster(self) -> List[str]:
        """Re-read the registered instances from the local roster copy."""
        # One copy first: the receive thread applies roster deltas to the
        # instance's dict in place.
        roster = dict(self.instance.roster)
        self._participants = sorted(
            iid for iid in roster if iid != self.instance.instance_id
        )
        rows = [
            f"{iid}  ({roster[iid].user}, {roster[iid].app_type or 'app'})"
            for iid in self._participants
        ]
        self.roster_list.set("items", rows)
        self.roster_list.set("selected", [])
        return self._participants

    def select_participant(self, instance_id: str) -> List[str]:
        """Pick a participant; loads their couplable object list."""
        if instance_id not in self._participants:
            raise ValueError(f"unknown participant {instance_id!r}")
        index = self._participants.index(instance_id)
        self.roster_list.select_indices([index])
        return self._load_objects(instance_id)

    # ------------------------------------------------------------------
    # Step 2: objects ("a simplified graphical representation")
    # ------------------------------------------------------------------

    def _load_objects(self, instance_id: str) -> List[str]:
        self._selected_participant = instance_id
        roots = self._discover_roots(instance_id)
        paths: List[str] = []
        rows: List[str] = []
        for root_path in roots:
            payload = self.instance.fetch_state((instance_id, root_path))
            structure = payload.get("structure")
            if structure is None:
                continue
            for rel, type_name, depth in _walk_spec(structure):
                path = root_path if not rel else f"{root_path}/{rel}"
                paths.append(path)
                rows.append("  " * depth + f"{path.rsplit('/', 1)[-1]} "
                            f"<{type_name}>")
        self._object_paths = paths
        self.tree_list.set("items", rows)
        self.tree_list.set("selected", [])
        self._set_status(
            f"{instance_id}: {len(paths)} couplable objects"
        )
        return paths

    def _discover_roots(self, instance_id: str) -> List[str]:
        """Ask the participant for its root widget names (a tiny
        application-independent command both sides understand)."""
        try:
            roots = self.instance.send_command(
                "__list_roots__", None, targets=[instance_id], want_reply=True
            )
            return [str(r) for r in roots or []]
        except ReproError:  # no reply in time, or an ERROR reply
            return []

    def select_objects(self, paths: List[str]) -> None:
        indices = [self._object_paths.index(p) for p in paths]
        self.tree_list.select_indices(indices)

    # ------------------------------------------------------------------
    # Couple / decouple
    # ------------------------------------------------------------------

    def _selected_gids(self) -> List[GlobalId]:
        if self._selected_participant is None:
            return []
        return [
            (self._selected_participant, self._object_paths[i])
            for i in self.tree_list.get("selected")
            if 0 <= i < len(self._object_paths)
        ]

    def local_counterpart(self, remote_path: str) -> str:
        """The controller-side path a remote object couples to."""
        return self.correspondences.get(remote_path, remote_path)

    def couple_selected(self) -> int:
        """RemoteCouple every selected object to its local counterpart."""
        count = 0
        for remote in self._selected_gids():
            local = (self.instance.instance_id,
                     self.local_counterpart(remote[1]))
            if self.instance.find_widget(local[1]) is None:
                continue  # no counterpart in the controller's environment
            self.instance.remote_couple(remote, local)
            self.active_links.append((remote, local))
            count += 1
        self._set_status(f"coupled {count} object(s)")
        return count

    def decouple_selected(self) -> int:
        count = 0
        for remote in self._selected_gids():
            for link in [l for l in self.active_links if l[0] == remote]:
                self.instance.remote_decouple(link[0], link[1])
                self.active_links.remove(link)
                count += 1
        self._set_status(f"decoupled {count} object(s)")
        return count

    def end_all_sessions(self) -> int:
        """Decouple everything this panel ever coupled."""
        count = len(self.active_links)
        for remote, local in list(self.active_links):
            self.instance.remote_decouple(remote, local)
        self.active_links.clear()
        self._set_status("all sessions ended")
        return count

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _wire(self) -> None:
        self._w("participants/refresh").add_callback(
            ACTIVATE, lambda w, e: self.refresh_roster()
        )
        self._w("objects/couple").add_callback(
            ACTIVATE, lambda w, e: self.couple_selected()
        )
        self._w("objects/decouple").add_callback(
            ACTIVATE, lambda w, e: self.decouple_selected()
        )

        def on_pick(widget: UIObject, _event: Any) -> None:
            selected = widget.get("selected")
            if selected and 0 <= selected[0] < len(self._participants):
                self._load_objects(self._participants[selected[0]])

        self.roster_list.add_callback(SELECTION_CHANGED, on_pick)


def enable_panel_introspection(instance: ApplicationInstance) -> None:
    """Install the tiny command handler the panel's object discovery uses.

    Any application that wants to appear in control panels calls this once
    (the panel-side counterpart of the paper's "register the application
    with the server").
    """
    instance.on_command(
        "__list_roots__",
        lambda _data, _sender: [root.pathname for root in instance.roots()],
    )


def _walk_spec(spec: Mapping[str, Any], prefix: str = "", depth: int = 0):
    yield prefix, spec["type"], depth
    for child in spec.get("children", []):
        child_prefix = (
            f"{prefix}/{child['name']}" if prefix else child["name"]
        )
        yield from _walk_spec(child, child_prefix, depth + 1)
