"""Thread-safety of the coupling runtime over sockets.

Over TCP, each instance's inbound messages arrive on a reader thread while
the application fires events from its own thread; the transport's guard
serializes them.  These tests hammer that boundary — and, for both socket
hosts, the order in which concurrent senders' messages reach one peer.
"""

import threading
import time

import pytest

from repro.session import Session
from repro.toolkit.widgets import Canvas, Shell, TextField

FIELD = "/ui/field"
CANVAS = "/ui/canvas"


def build_tree():
    root = Shell("ui")
    TextField("field", parent=root)
    Canvas("canvas", parent=root, width=40, height=10)
    return root


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestTcpConcurrency:
    def test_two_threads_firing_concurrently_converge_as_sets(self):
        with Session(backend="tcp") as session:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(build_tree())
            tb = b.add_root(build_tree())
            a.couple(ta.find(CANVAS), ("b", CANVAS))
            assert wait_until(lambda: b.is_coupled(CANVAS))

            denials = {"a": 0, "b": 0}

            def drawer(name, instance, tree, rows):
                for i in range(rows):
                    tree.find(CANVAS).draw_stroke([(i, 0), (i, 1)])
                    result = instance.last_execution
                    if result is not None and result.lock_denied:
                        denials[name] += 1
                    time.sleep(0.001)

            t1 = threading.Thread(target=drawer, args=("a", a, ta, 20))
            t2 = threading.Thread(target=drawer, args=("b", b, tb, 20))
            t1.start(); t2.start()
            t1.join(15.0); t2.join(15.0)
            assert not t1.is_alive() and not t2.is_alive()

            accepted = 40 - denials["a"] - denials["b"]
            assert wait_until(
                lambda: ta.find(CANVAS).stroke_count == accepted
                and tb.find(CANVAS).stroke_count == accepted
            ), (
                f"accepted={accepted}, a={ta.find(CANVAS).stroke_count}, "
                f"b={tb.find(CANVAS).stroke_count}"
            )

            def key(stroke):
                return tuple(map(tuple, stroke["points"]))

            strokes_a = sorted(map(key, ta.find(CANVAS).strokes))
            strokes_b = sorted(map(key, tb.find(CANVAS).strokes))
            assert strokes_a == strokes_b

    def test_single_writer_many_events_under_reader_thread(self):
        with Session(backend="tcp") as session:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(build_tree())
            tb = b.add_root(build_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            assert wait_until(lambda: b.is_coupled(FIELD))
            for i in range(100):
                ta.find(FIELD).commit(f"v{i}")
            assert wait_until(lambda: tb.find(FIELD).value == "v99")
            assert a.stats["lock_denials"] == 0

    def test_bidirectional_commands_during_events(self):
        with Session(backend="tcp") as session:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            ta = a.add_root(build_tree())
            b.add_root(build_tree())
            a.couple(ta.find(FIELD), ("b", FIELD))
            assert wait_until(lambda: b.is_coupled(FIELD))
            b.on_command("sum", lambda data, sender: sum(data))

            results = []

            def commander():
                for _ in range(10):
                    results.append(
                        a.send_command("sum", [1, 2, 3], targets=["b"],
                                       want_reply=True)
                    )

            def typist():
                for i in range(10):
                    ta.find(FIELD).commit(f"t{i}")
                    time.sleep(0.002)

            t1 = threading.Thread(target=commander)
            t2 = threading.Thread(target=typist)
            t1.start(); t2.start()
            t1.join(15.0); t2.join(15.0)
            assert not t1.is_alive() and not t2.is_alive()
            assert results == [6] * 10


class TestConcurrentJoins:
    """Per-destination FIFO under concurrent senders, on both socket hosts.

    Every join makes the server tell each registered peer one roster
    delta, numbered by registry version; 32 clients registering at once
    make 32 reader threads (tcp) or one loop burst after another (aio)
    write to the same destinations.  A host that let two of those writes
    swap would show up as a version gap (a roster resync) or a stale
    delta at some instance.
    """

    N = 32

    @pytest.mark.parametrize("backend", ["tcp", "aio"])
    def test_every_delta_arrives_once_and_in_order(self, backend):
        n = self.N
        with Session(backend=backend) as session:
            joined, errors = {}, []

            def join(index):
                try:
                    joined[index] = session.create_instance(
                        f"i{index:02d}", user=f"u{index:02d}"
                    )
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)

            threads = [
                threading.Thread(target=join, args=(index,)) for index in range(n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert wait_until(
                lambda: all(inst.roster_version == n for inst in joined.values())
            )
            for inst in joined.values():
                assert len(inst.roster) == n
                assert inst.stats["roster_resyncs"] == 0
                assert inst.stats["roster_duplicates"] == 0
            # One REGISTER_ACK per join and one delta per (join, earlier
            # peer) pair; a resync or a retry would add to it.
            expected = n + n * (n - 1) // 2
            assert expected == 528
            assert wait_until(lambda: session.traffic()["messages"] == expected)
