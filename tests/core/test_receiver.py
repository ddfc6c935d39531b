"""The receive side of §3.2 (``core/receiver.py``), with no transport.

A Hypothesis property drives one dense stream through random deliver /
duplicate / drop / reorder steps with occasional snapshots, as a lossy
link would; unit tests pin the rule for each origin's (sparse) event
stream and where it ends.  The last test is the rejoin probe on a
memory deployment: a rejoined instance's events are not duplicates.
"""

import ast
import inspect
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.receiver as receiver_module
import repro.toolkit.events as events
from repro.core.receiver import APPLY, DUPLICATE, GAP, Receiver, Stream, classify
from repro.server.registry import RegistrationRecord
from repro.session import Session
from repro.toolkit.widgets import Shell, TextField

TIMEOUT = 5.0

steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(
                ("send", "send", "deliver", "deliver", "duplicate", "drop", "reorder")
            )
        ),
        st.tuples(st.just("tick"), st.floats(0.0, 2 * TIMEOUT)),
        st.tuples(st.just("snapshot"), st.integers(0, 4)),
    ),
    max_size=60,
)


def test_the_module_imports_nothing_from_the_network_layer():
    tree = ast.parse(inspect.getsource(receiver_module))
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("repro")]


def test_classify():
    assert classify(3, 4) == APPLY
    assert classify(3, 3) == classify(3, 0) == DUPLICATE
    assert classify(3, 5) == classify(0, 9) == GAP


@settings(max_examples=300, deadline=None)
@given(script=steps)
# A late answer, older than the gap it follows, does not answer the ask.
@example(script=[("send",)] * 4 + [("drop",), ("deliver",), ("snapshot", 3), ("deliver",)])
def test_a_stream_applies_each_number_once_in_order_and_asks_once_per_timeout(
    script,
):
    stream = Stream()
    sent = 0  # the sender's last number
    link = []  # numbers in flight, in delivery order
    delivered = []  # every number handed over, for duplicates
    covered = set()  # numbers reflected: applied, or inside an adopted snapshot
    asks = []  # when each snapshot was asked for
    wanted = 0  # the newest number a gap showed since the last answer
    answered = True  # a snapshot reaching it was adopted since the last ask
    now = 0.0

    def hand_over(n):
        nonlocal wanted, answered
        delivered.append(n)
        known = stream.known
        verdict = stream.classify(n)
        if verdict == APPLY:
            assert n == known + 1 and n not in covered  # nothing past a gap
            covered.add(n)
            stream.advance(n)
        elif verdict == DUPLICATE:
            assert n <= known
        else:
            assert n > known + 1
            wanted = max(wanted, n)
            if stream.ask(n, now, TIMEOUT):
                if asks and not answered:
                    assert now - asks[-1] >= TIMEOUT  # one ask per timeout
                asks.append(now)
                answered = False

    for step in script:
        kind = step[0]
        if kind == "send":
            sent += 1
            link.append(sent)
        elif kind == "deliver" and link:
            hand_over(link.pop(0))
        elif kind == "duplicate" and delivered:
            hand_over(delivered[-1])
        elif kind == "drop" and link:
            link.pop(0)
        elif kind == "reorder" and len(link) > 1:
            link[0], link[1] = link[1], link[0]
        elif kind == "tick":
            now += step[1]
        elif kind == "snapshot":
            # A snapshot taken some sends ago (a late answer), or now.
            n = max(0, sent - step[1])
            before = stream.known
            if stream.adopt(n):
                assert n >= before
                covered.update(range(1, n + 1))
                if n >= wanted:
                    wanted, answered = 0, True
            else:
                assert n < before and stream.known == before

    # The last answer is a snapshot of everything sent: the stream has
    # reached the sender, and what is still in flight is a duplicate.
    stream.adopt(sent)
    assert stream.known == sent
    for n in link:
        assert stream.classify(n) == DUPLICATE
    sent += 1
    assert stream.classify(sent) == APPLY


def test_a_register_ack_is_adopted_even_when_older():
    stream = Stream()
    stream.adopt(7)
    assert not stream.adopt(3)
    assert stream.adopt(3, always=True) and stream.known == 3


def test_a_snapshot_answers_the_ask_once_it_reaches_every_gap():
    stream = Stream()
    assert stream.ask(3, 0.0, TIMEOUT)
    assert not stream.ask(4, TIMEOUT / 2, TIMEOUT)
    stream.adopt(2)  # a late answer to an earlier ask: 3 and 4 still missed
    assert stream.known == 2 and not stream.ask(5, TIMEOUT / 2, TIMEOUT)
    stream.adopt(5)
    assert stream.ask(7, TIMEOUT / 2, TIMEOUT)  # answered: a new gap asks at once
    assert not stream.ask(8, TIMEOUT, TIMEOUT)
    assert stream.ask(8, TIMEOUT * 1.5, TIMEOUT)  # unanswered past its timeout


class TestEventStreams:
    def test_only_a_duplicate_is_refused(self):
        receiver = Receiver()
        assert receiver.fresh_event("a", 3)
        assert receiver.fresh_event("a", 9)  # sparse: a later one is no gap
        assert not receiver.fresh_event("a", 9)
        assert not receiver.fresh_event("a", 4)
        assert receiver.fresh_event("b", 1)  # one stream per origin
        assert receiver.fresh_event("", 1) and receiver.fresh_event("", 1)

    def test_a_left_origin_starts_a_new_stream(self):
        receiver = Receiver()
        assert receiver.fresh_event("a", 9)
        receiver.left("a")
        assert receiver.fresh_event("a", 1)

    def test_an_adopted_roster_ends_missing_and_reregistered_origins(self):
        receiver = Receiver()
        first = RegistrationRecord("a", "u", registered_at=1.0)
        again = RegistrationRecord("a", "u", registered_at=2.0)
        stays = RegistrationRecord("b", "u")
        for origin in ("a", "b", "c", "d"):
            assert receiver.fresh_event(origin, 9)
        held = {"a": first, "b": stays, "c": stays}
        # a registered anew, b unchanged, c gone, d first seen in this one.
        receiver.registrations(held, {"a": again, "b": stays, "d": stays})
        assert receiver.fresh_event("a", 1)
        assert not receiver.fresh_event("b", 9)
        assert receiver.fresh_event("c", 1)
        assert not receiver.fresh_event("d", 9)


def test_a_rejoined_instance_from_a_fresh_process_is_not_a_duplicate(monkeypatch):
    """An instance id that leaves and registers again from a new process
    numbers its events from 1 again; its receivers execute them."""
    with Session(backend="memory") as session:
        b = session.create_instance("b", user="bob")
        tree_b = b.add_root(Shell("app"))
        TextField("f", parent=tree_b)

        def join():
            a = session.create_instance("a", user="alice")
            tree = a.add_root(Shell("app"))
            field = TextField("f", parent=tree)
            a.couple(field, ("b", "/app/f"))
            session.pump()
            return a, field

        a, field = join()
        for i in range(5):
            field.commit(f"v{i}")
            session.pump()
        assert tree_b.find("f").value == "v4"
        a.close()
        session.pump()
        # A fresh process: the event counter starts again.
        monkeypatch.setattr(events, "_event_counter", itertools.count(1))
        a, field = join()
        field.commit("after rejoin")
        session.pump()
        assert a.last_execution.executed
        assert tree_b.find("f").value == "after rejoin"
        assert b.stats["duplicate_events"] == 0
