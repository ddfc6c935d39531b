"""The fully replicated architecture (Figures 3/4) under the harness API.

This is *the library itself* — a :class:`~repro.session.Session` with
one COSOFT application instance per user and the shared widgets coupled —
wrapped into an :class:`~repro.baselines.common.ArchitectureHarness` so
Table 1 and the figure benchmarks can run the same workload against all
three architectures.

"A fully replicated architecture ... avoids this runtime problem [central
semantic blocking], and additionally, it facilitates the design of
multi-user programs." (§2.1)  Here a time-consuming semantic action costs
time on *every replica* (re-execution), but replicas pay it independently —
one user's slow operation never queues behind another group's work.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.baselines.common import ArchitectureHarness
from repro.cluster import ShardedCosoftCluster
from repro.core.instance import ApplicationInstance
from repro.server.permissions import AccessControl
from repro.server.server import SERVER_ID, CosoftServer
from repro.toolkit.builder import build
from repro.toolkit.widget import UIObject
from repro.workloads.generator import UserAction


def _instance_id(user: int) -> str:
    return f"replica-{user}"


class FullyReplicatedHarness(ArchitectureHarness):
    """N complete COSOFT replicas coordinated by the central server."""

    name = "fully-replicated"
    central_endpoint = SERVER_ID
    features = {
        "replication": "user interface + functionality",
        "local_echo": True,
        "partial_coupling": True,
        "heterogeneous_instances": True,
        "dynamic_grouping": True,
        "single_user_reuse": "register with the server (one statement)",
    }

    def __init__(self, n_users: int, *, shards: int = 0, **kwargs: Any):
        # Number of cluster shards fronting the session; 0 keeps the
        # paper's single central server.
        self._shards = shards
        super().__init__(n_users, **kwargs)

    def _setup(self) -> None:
        if self._shards:
            self.server: Any = ShardedCosoftCluster(
                self._shards, clock=self.clock
            )
        else:
            self.server = CosoftServer(clock=self.clock, access=AccessControl())
        self.server.bind(
            self.network.attach(SERVER_ID, self.server.handle_message)
        )
        self.instances: List[ApplicationInstance] = []
        self.trees: Dict[int, UIObject] = {}
        for user in range(self.n_users):
            instance = ApplicationInstance(_instance_id(user), user=f"user-{user}")
            instance.bind(
                self.network.attach(instance.instance_id, instance.handle_message)
            )
            instance.register()
            tree = build(self.app_spec)
            instance.add_root(tree)
            self.instances.append(instance)
            self.trees[user] = tree
        self.network.pump()
        self._couple_everything()
        self._install_probes()
        self.network.pump()

    def _couple_everything(self) -> None:
        """Couple every leaf widget of replica 0 with its counterparts.

        The transitive closure (§3.2) turns each per-path star into one
        couple group spanning all replicas.
        """
        primary = self.instances[0]
        for widget in self.trees[0].walk():
            if widget.children:
                continue  # events happen on leaves; containers stay local
            for user in range(1, self.n_users):
                primary.couple(
                    widget, (_instance_id(user), widget.pathname)
                )

    def _install_probes(self) -> None:
        """Attach callbacks that (a) model the semantic cost of the
        application's re-executed actions and (b) record sync times."""
        for user, tree in self.trees.items():
            instance_id = _instance_id(user)
            for widget in tree.walk():
                if widget.children:
                    continue
                for event_type in widget.EMITS or ("activate",):
                    widget.add_callback(
                        event_type, self._probe(user, instance_id)
                    )

    def _probe(self, user: int, instance_id: str):
        def on_event(widget: UIObject, event: Any) -> None:
            if self.semantic_cost:
                # Re-execution costs time on this replica only.
                self.network.occupy(instance_id, self.semantic_cost)
            action_id = event.params.get("action_id")
            if action_id is not None:
                self._mark_synced(int(action_id), user)

        return on_event

    # ------------------------------------------------------------------
    # Action injection: a real widget.fire through the coupling runtime.
    # ------------------------------------------------------------------

    def _perform(self, action: UserAction) -> None:
        widget = self.trees[action.user].find(action.path)
        params = dict(action.params)
        params["action_id"] = action.action_id
        record = self.records[action.action_id]
        widget.fire(action.event_type, user=f"user-{action.user}", **params)
        result = self.instances[action.user].last_execution
        if result is not None and result.lock_denied:
            self._mark_denied(action.action_id)
        else:
            # The built-in feedback echoed at issue time, before the floor
            # round trip — the replicated architecture's instant local echo.
            record.t_echo = record.t_issue

    def user_state(self, user: int, path: str) -> Dict[str, Any]:
        return self.trees[user].find(path).state()

    def close(self) -> None:
        for instance in self.instances:
            instance.close()
        self.network.pump()
