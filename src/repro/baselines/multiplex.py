"""The multiplex (shared-X) architecture — Figure 1.

"A first type of multi-user systems employs a single-instance architecture
(also called 'multiplex architecture') in which several users interact
simultaneously with a single centralized application instance from several
workstations. ... The shared window system multiplexes the application's
output to each participant's display and dispatches user events
sequentially. ... only the I/O level of the user interface is replicated.
... This architecture does not fit in with the requirements of highly
parallel processing and real-time response." (§2.1)

Model: one central endpoint (``xserver``) owns the only widget tree and all
semantics; each user endpoint is a dumb display holding a state mirror.
A user action is shipped to the center, executed there (including the
semantic cost), and the resulting widget state is multiplexed back to every
display.  Consequently even the issuing user's *echo* takes a full round
trip — the architecture's defining weakness.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.baselines.common import ArchitectureHarness
from repro.net import kinds
from repro.net.message import Message
from repro.toolkit.builder import build
from repro.toolkit.events import Event
from repro.workloads.generator import UserAction

CENTRAL = "xserver"


def _display_id(user: int) -> str:
    return f"display-{user}"


class MultiplexHarness(ArchitectureHarness):
    """One centralized application instance, N multiplexed displays."""

    name = "multiplex"
    central_endpoint = CENTRAL
    features = {
        "replication": "I/O only",
        "local_echo": False,
        "partial_coupling": False,
        "heterogeneous_instances": False,
        "dynamic_grouping": False,
        "single_user_reuse": "unchanged binaries",
    }

    def _setup(self) -> None:
        # The single application instance, living at the central endpoint.
        self.central_tree = build(self.app_spec)
        #: Per-user display mirrors: path -> attribute state.
        self.mirrors: Dict[int, Dict[str, Dict[str, Any]]] = {
            user: {} for user in range(self.n_users)
        }
        self.network.attach(CENTRAL, self._central_handler)
        self._displays = {
            user: self.network.attach(_display_id(user), self._display_handler(user))
            for user in range(self.n_users)
        }

    # ------------------------------------------------------------------
    # Action injection: the display sends the raw input to the center.
    # ------------------------------------------------------------------

    def _perform(self, action: UserAction) -> None:
        params = dict(action.params)
        params["action_id"] = action.action_id
        self._displays[action.user].send(
            Message(
                kind=kinds.COMMAND,
                sender=_display_id(action.user),
                to=CENTRAL,
                payload={
                    "command": "input",
                    "data": {
                        "path": action.path,
                        "event_type": action.event_type,
                        "params": params,
                        "user": action.user,
                        "action_id": action.action_id,
                    },
                },
            )
        )

    # ------------------------------------------------------------------
    # Central application: execute, then multiplex the output.
    # ------------------------------------------------------------------

    def _central_handler(self, message: Message) -> None:
        data = message.payload["data"]
        widget = self.central_tree.find(data["path"])
        event = Event(
            type=data["event_type"],
            source_path=data["path"],
            params=data["params"],
            user=f"user-{data['user']}",
        )
        if self.semantic_cost:
            self.network.occupy(CENTRAL, self.semantic_cost)
        widget.deliver(event)
        update = {
            "command": "output",
            "data": {
                "path": data["path"],
                "state": widget.state(),
                "action_id": data["action_id"],
            },
        }
        first = Message(
            kind=kinds.COMMAND, sender=CENTRAL, to=_display_id(0), payload=update
        )
        self.network.submit(first)
        for user in range(1, self.n_users):
            self.network.submit(first.addressed(_display_id(user)))

    # ------------------------------------------------------------------
    # Displays: apply the multiplexed output.
    # ------------------------------------------------------------------

    def _display_handler(self, user: int):
        def handle(message: Message) -> None:
            data = message.payload["data"]
            self.mirrors[user][data["path"]] = dict(data["state"])
            self._mark_synced(data["action_id"], user)

        return handle

    def user_state(self, user: int, path: str) -> Dict[str, Any]:
        return dict(self.mirrors[user].get(path, {}))
