"""E11 — §2.2 population relaxation: selective vs global sharing.

"In global sharing mode, each participant has to couple with the rest of
the work group ... In our approach, we support dynamic grouping, in that
we allow each participant to couple selectively with other participants."

Series reproduced: N participants editing their shared field at the same
rate, under (a) **global sharing** — one couple group spanning everyone —
versus (b) **selective grouping** — disjoint pairs.  Every event in
global mode fans out to N−1 receivers (plus their acks); in pairs it
reaches exactly one.  Selective coupling turns the per-event cost from
O(N) into O(1), which is what makes the paper's classroom (one teacher,
many mostly-independent students) feasible.
"""

import pytest

from _common import emit_table
from repro.core.groups import CouplingGroup
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField

USERS = (4, 8, 16)
EVENTS_PER_USER = 5
FIELD = "/ui/field"


def build_session(n_users):
    session = Session()
    trees = []
    for i in range(n_users):
        inst = session.create_instance(f"i{i}", user=f"u{i}")
        root = Shell("ui")
        TextField("field", parent=root)
        inst.add_root(root)
        trees.append(root)
    coordinator = session.create_instance("coord", user="mod")
    return session, trees, coordinator


def run(n_users, mode):
    session, trees, coordinator = build_session(n_users)
    if mode == "global":
        group = CouplingGroup(coordinator, "everyone", [FIELD])
        for i in range(n_users):
            group.add_member(f"i{i}")
    else:  # disjoint pairs
        for i in range(0, n_users, 2):
            pair = CouplingGroup(coordinator, f"pair-{i}", [FIELD])
            pair.add_member(f"i{i}")
            pair.add_member(f"i{i + 1}")
    session.pump()
    session.network.stats.reset()
    for round_no in range(EVENTS_PER_USER):
        for i in range(n_users):
            trees[i].find(FIELD).commit(f"u{i}-r{round_no}")
            session.pump()
    stats = session.network.stats.snapshot()
    events = n_users * EVENTS_PER_USER
    # Convergence check per group.
    if mode == "global":
        values = {t.find(FIELD).value for t in trees}
        assert len(values) == 1
    else:
        for i in range(0, n_users, 2):
            assert (
                trees[i].find(FIELD).value == trees[i + 1].find(FIELD).value
            )
    session.close()
    return {
        "messages_per_event": stats["messages"] / events,
        "bytes_per_event": stats["bytes"] / events,
    }


class TestPopulationRelaxation:
    def test_global_vs_selective(self, benchmark):
        def sweep():
            rows = []
            for n in USERS:
                global_mode = run(n, "global")
                pairs_mode = run(n, "pairs")
                rows.append(
                    [
                        n,
                        round(global_mode["messages_per_event"], 1),
                        round(pairs_mode["messages_per_event"], 1),
                        round(
                            global_mode["messages_per_event"]
                            / pairs_mode["messages_per_event"],
                            1,
                        ),
                    ]
                )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        emit_table(
            "e11_population",
            "E11: msgs/event — global sharing vs selective pairs",
            ["users", "global msgs/event", "pairs msgs/event", "ratio"],
            rows,
        )
        # Shape: global fan-out grows linearly with N (2 + 2(N-1));
        # selective pairs stay constant (2 + 2).
        for n, global_cost, pairs_cost, ratio in rows:
            assert global_cost == pytest.approx(2 + 2 * (n - 1), abs=0.5)
            assert pairs_cost == pytest.approx(4, abs=0.5)
        ratios = [row[3] for row in rows]
        assert ratios == sorted(ratios)  # the gap widens with N
        assert ratios[-1] > 4
