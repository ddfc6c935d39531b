"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import copy
import logging
import time

import pytest

from repro.core import action_sync
from repro.net import kinds
from repro.net.memory import MemoryTransport
from repro.net.message import Message
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED, Event
from repro.toolkit import (
    Canvas,
    Form,
    OptionMenu,
    PushButton,
    Scale,
    Shell,
    TextField,
    ToggleButton,
)


class _RecordList(logging.Handler):
    def __init__(self, level):
        super().__init__(level)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def loop_errors(request):
    """Fail a test during which the aio event loop recorded an ERROR.

    The aio transports decode and dispatch inside a socket's selector
    handler; a bug there does not raise into the test, the loop logs it
    (``read_failed``, or ``callback_failed`` for a queued callback, an
    ERROR with its traceback on the ``repro.net.aio`` logger) and
    silently drops that connection.  A test that provokes such an error
    on purpose carries ``@pytest.mark.expects_loop_error`` and gets the
    records as this fixture's value.
    """
    handler = _RecordList(logging.ERROR)
    logger = logging.getLogger("repro.net.aio")
    logger.addHandler(handler)
    yield handler.records
    logger.removeHandler(handler)
    expected = request.node.get_closest_marker("expects_loop_error")
    if handler.records and expected is None:
        pytest.fail(
            "the aio event loop recorded an error during this test:\n"
            + "\n".join(record.getMessage() for record in handler.records)
        )


@pytest.fixture
def session():
    """A fresh deployment (server + simulated network).  A test that
    needs another deployment builds it with ``Session(...)`` or runs a
    ``tests/harness.py`` cell."""
    sess = Session()
    yield sess
    sess.close()


@pytest.fixture
def pair(session):
    """Two registered instances named 'a' and 'b'."""
    a = session.create_instance("a", user="alice")
    b = session.create_instance("b", user="bob")
    return session, a, b


def make_demo_tree(root_name: str = "app") -> Shell:
    """A small mixed widget tree used across tests.

    Layout::

        /<root>
          /form
            /name   (textfield)
            /mode   (optionmenu: eq/like)
            /ok     (pushbutton)
            /flag   (togglebutton)
          /board
            /canvas (canvas)
            /zoom   (scale)
    """
    shell = Shell(root_name, title="demo")
    form = Form("form", parent=shell)
    TextField("name", parent=form, width=20)
    OptionMenu("mode", parent=form, entries=["eq", "like"], selection="eq")
    PushButton("ok", parent=form, label="OK")
    ToggleButton("flag", parent=form, label="Flag")
    board = Form("board", parent=shell)
    Canvas("canvas", parent=board, width=30, height=8)
    Scale("zoom", parent=board, maximum=10)
    return shell


def strip_state(spec):
    """A ``to_spec`` result as a shape record's skeleton spells it: no
    state, children in a tuple."""
    bare = {"type": spec["type"], "name": spec["name"]}
    if "children" in spec:
        bare["children"] = tuple(strip_state(child) for child in spec["children"])
    return bare


def floor_free(session):
    """No floor is held anywhere in *session*'s deployment.

    A shard worker process's table is read from its latest heartbeat.
    """
    cluster = session.cluster
    servers = cluster.shards.values() if cluster is not None else [session.server]
    return not any(
        server.remote_stats.get("locks_held", 0)
        if hasattr(server, "remote_stats")
        else len(server.locks)
        for server in servers
    )


@contextlib.contextmanager
def guarded_payloads():
    """Check that no handler writes into a payload it is handed.

    On the memory backend a message reaches its receiver by reference,
    and one fan-out hands the *same* payload to every receiver, so a
    handler that wrote into it would edit what the next receiver is
    about to read.  Inside the block every payload a memory endpoint
    receives is deep-copied before its handler runs and compared after.
    Yields the list of delivered kinds; fails on exit if any payload
    changed.
    """
    delivered, mutated = [], []
    real_recv = MemoryTransport.recv

    def checking_recv(self, message):
        before = copy.deepcopy(message.payload)
        real_recv(self, message)
        delivered.append(message.kind)
        if message.payload != before:
            mutated.append((self.local_id, message.kind, before, message.payload))

    MemoryTransport.recv = checking_recv
    try:
        yield delivered
    finally:
        MemoryTransport.recv = real_recv
    assert mutated == [], mutated


@pytest.fixture
def payload_guard():
    """:func:`guarded_payloads` around one test."""
    with guarded_payloads() as delivered:
        yield delivered


def settle(session, predicate, timeout=30.0):
    """Quiesce *session*, then test *predicate*: one pump on the memory
    backend, a poll until *timeout* on the socket ones.

    On sockets the poll also waits for the floor: replicas show an
    action's value before the source's ``commit()`` even returns, while
    the acks that release its floor are still in flight — and the next
    writer is rightly denied until they land.
    """
    if session.backend == "memory":
        session.pump()
        return predicate()
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate() and floor_free(session):
            return True
        time.sleep(0.01)
    return predicate() and floor_free(session)


def record_executions(*widgets):
    """What *widgets* execute, as their application sees it.

    A VALUE_CHANGED callback on each widget appends ``(user, seq,
    params)`` to the returned list, in execution order: the user's own
    granted events and every re-execution of another member's (§3.2).
    A denied event is rolled back before any callback runs, so it is not
    in the list; the instance's ``trace`` keeps it as the user's input.
    """
    executed = []

    def on_value(widget, event):
        executed.append((event.user, event.seq, dict(event.params)))

    for widget in widgets:
        widget.add_callback(VALUE_CHANGED, on_value)
    return executed


def two_message_fire(instance, widget, event_type, user="", **params):
    """``widget.fire(...)`` the way clients spoke before the floor request
    carried the event: LOCK_REQUEST, wait for the grant, then EVENT.

    The servers still take this form (older clients in a mixed fleet);
    tests drive it by hand, as the interop peer and as the oracle the
    one-message form is compared with.  Returns whether the floor was
    granted.
    """
    event = Event(
        type=event_type,
        source_path=widget.pathname,
        params=params,
        user=user,
        instance_id=instance.instance_id,
    )
    with instance.transport.guard():
        instance.trace.record(event)
        undo = widget.apply_feedback(event)
        if not instance.replica.is_coupled(instance.gid(widget)):
            widget.run_callbacks(event)  # uncoupled: stays local, as ever
            return True
        grant = action_sync.request_floor(
            instance, instance.gid(widget), instance.lock_timeout
        )
        if grant is None:
            undo.rollback()
            return False
        widget.run_callbacks(event)
        instance.send(
            Message(
                kind=kinds.EVENT,
                sender=instance.instance_id,
                payload={
                    "event": event.to_wire(),
                    "token": grant.token,
                    "release": True,
                },
            )
        )
        return True


@pytest.fixture
def demo_tree():
    return make_demo_tree()


@pytest.fixture
def coupled_pair(pair):
    """Two instances with identical demo trees, text fields coupled."""
    session, a, b = pair
    tree_a = make_demo_tree()
    tree_b = make_demo_tree()
    a.add_root(tree_a)
    b.add_root(tree_b)
    a.couple(tree_a.find("/app/form/name"), ("b", "/app/form/name"))
    session.pump()
    return session, a, b, tree_a, tree_b
