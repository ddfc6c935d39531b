"""The UI-replicated (partially replicated) architecture — Figure 2.

"In the partially replicated architecture, only the shared user interface
is copied for each participant ... the unique semantic component and the
individual user interfaces run in separate processes.  The Suite system is
a general tool that supports the construction of UI-replicated
applications. ... Concurrency on the user interface level is gained through
buffering and sequential execution of those user actions that affect the
semantics of the application.  If such a semantic action is time-consuming,
it may of course block the execution of other user's actions for an
unacceptably long period of time." (§2.1)

Model: each user endpoint owns a full copy of the *user interface* (so the
echo is immediate and local), while one central ``semantic`` endpoint owns
the application functionality.  Semantic actions queue at the center,
execute serially (modeled via the network's busy-time), and their results
are broadcast back to every UI replica.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.baselines.common import ArchitectureHarness
from repro.net import kinds
from repro.net.message import Message
from repro.toolkit.builder import build
from repro.toolkit.events import Event
from repro.toolkit.widget import UIObject
from repro.workloads.generator import UserAction

CENTRAL = "semantic"


def _ui_id(user: int) -> str:
    return f"ui-{user}"


class UIReplicatedHarness(ArchitectureHarness):
    """Replicated user interfaces around a single semantic process."""

    name = "ui-replicated"
    central_endpoint = CENTRAL
    features = {
        "replication": "user interface",
        "local_echo": True,
        "partial_coupling": "relevant attributes (Suite)",
        "heterogeneous_instances": False,
        "dynamic_grouping": False,
        "single_user_reuse": "restructure around dialogue/semantics split",
    }

    def _setup(self) -> None:
        #: The single semantic component's authoritative tree.
        self.semantic_tree = build(self.app_spec)
        #: Per-user full UI replicas.
        self.ui_trees: Dict[int, UIObject] = {
            user: build(self.app_spec) for user in range(self.n_users)
        }
        self.network.attach(CENTRAL, self._semantic_handler)
        self._uis = {
            user: self.network.attach(_ui_id(user), self._ui_handler(user))
            for user in range(self.n_users)
        }

    # ------------------------------------------------------------------
    # Action injection: local syntactic echo, semantic request queued.
    # ------------------------------------------------------------------

    def _perform(self, action: UserAction) -> None:
        params = dict(action.params)
        params["action_id"] = action.action_id
        event = Event(
            type=action.event_type,
            source_path=action.path,
            params=params,
            user=f"user-{action.user}",
        )
        # Dialogue-level processing is local: immediate feedback.
        widget = self.ui_trees[action.user].find(action.path)
        widget.apply_feedback(event)
        self._mark_synced(action.action_id, action.user)
        # The semantic part is buffered at the central component.
        self._uis[action.user].send(
            Message(
                kind=kinds.COMMAND,
                sender=_ui_id(action.user),
                to=CENTRAL,
                payload={
                    "command": "semantic",
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
    # Central semantic component: serial execution, result broadcast.
    # ------------------------------------------------------------------

    def _semantic_handler(self, message: Message) -> None:
        data = message.payload["data"]
        widget = self.semantic_tree.find(data["path"])
        event = Event(
            type=data["event_type"],
            source_path=data["path"],
            params=data["params"],
            user=f"user-{data['user']}",
        )
        if self.semantic_cost:
            # "sequential execution of those user actions that affect the
            # semantics" — the busy period defers every queued request.
            self.network.occupy(CENTRAL, self.semantic_cost)
        widget.deliver(event)
        update = {
            "command": "update",
            "data": {
                "path": data["path"],
                "state": widget.state(),
                "action_id": data["action_id"],
                "origin": data["user"],
            },
        }
        first = Message(
            kind=kinds.COMMAND, sender=CENTRAL, to=_ui_id(0), payload=update
        )
        self.network.submit(first)
        for user in range(1, self.n_users):
            self.network.submit(first.addressed(_ui_id(user)))

    # ------------------------------------------------------------------
    # UI replicas: install the semantic results.
    # ------------------------------------------------------------------

    def _ui_handler(self, user: int):
        def handle(message: Message) -> None:
            data = message.payload["data"]
            widget = self.ui_trees[user].find(data["path"])
            widget.set_state(data["state"])
            self._mark_synced(data["action_id"], user)

        return handle

    def user_state(self, user: int, path: str) -> Dict[str, Any]:
        return self.ui_trees[user].find(path).state()
