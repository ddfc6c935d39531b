"""Shared helpers for the persistence suite: a driven sans-I/O server.

Every test here works at the protocol level — build a
:class:`CosoftServer` with a journal attached, feed it wire messages,
kill it, and recover.  The helpers mirror the idiom of
``tests/server/test_server.py``.  (Deliberately not a ``conftest.py``:
pytest imports every conftest under the same module name, and the root
``tests/conftest.py`` is what the rest of the suite imports helpers
from.)
"""

from __future__ import annotations

from repro.net import kinds
from repro.net.clock import SimClock
from repro.net.message import Message
from repro.server.couples import gid_to_wire, global_id
from repro.server.server import SERVER_ID, CosoftServer


class FakeTransport:
    """Collects everything the server sends; no network."""

    def __init__(self):
        self.sent = []
        self.closed = False

    @property
    def local_id(self):
        return SERVER_ID

    def send(self, message):
        self.sent.append(message)

    def drive(self, predicate, timeout=5.0):
        return predicate()

    def close(self):
        self.closed = True

    def take(self):
        out, self.sent = self.sent, []
        return out


def make_server(persistence=None, **kwargs):
    """A bound server on a SimClock, optionally journaling."""
    srv = CosoftServer(clock=SimClock(), persistence=persistence, **kwargs)
    transport = FakeTransport()
    srv.bind(transport)
    return srv, transport


def register(srv, instance_id, user=None, app_type=""):
    srv.clock.advance(0.01)
    srv.handle_message(
        Message(
            kind=kinds.REGISTER,
            sender=instance_id,
            payload={"user": user or instance_id, "app_type": app_type},
        )
    )


def unregister(srv, instance_id):
    srv.clock.advance(0.01)
    srv.handle_message(
        Message(kind=kinds.UNREGISTER, sender=instance_id, payload={})
    )


def couple(srv, source, target):
    srv.clock.advance(0.01)
    srv.handle_message(
        Message(
            kind=kinds.COUPLE,
            sender=source[0],
            payload={
                "source": gid_to_wire(source),
                "target": gid_to_wire(target),
            },
        )
    )


def lock(srv, instance_id, path, token=1):
    srv.clock.advance(0.01)
    srv.handle_message(
        Message(
            kind=kinds.LOCK_REQUEST,
            sender=instance_id,
            payload={
                "source": gid_to_wire(global_id(instance_id, path)),
                "token": token,
            },
        )
    )


def unlock(srv, instance_id, token=1):
    srv.clock.advance(0.01)
    srv.handle_message(
        Message(
            kind=kinds.UNLOCK,
            sender=instance_id,
            payload={"token": token},
        )
    )


def history_push(srv, instance_id, path, state, user=""):
    srv.clock.advance(0.01)
    srv.handle_message(
        Message(
            kind=kinds.HISTORY_PUSH,
            sender=instance_id,
            payload={
                "object": gid_to_wire(global_id(instance_id, path)),
                "state": state,
                "reason": "copy_to",
                "user": user,
            },
        )
    )


def undo(srv, instance_id, path):
    srv.clock.advance(0.01)
    srv.handle_message(
        Message(
            kind=kinds.UNDO_REQUEST,
            sender=instance_id,
            payload={"object": gid_to_wire(global_id(instance_id, path))},
        )
    )


def drive_workload(srv):
    """A small mixed workload touching all four database categories."""
    register(srv, "a", user="alice")
    register(srv, "b", user="bob")
    register(srv, "c", user="carol")
    couple(srv, global_id("a", "/app/x"), global_id("b", "/app/x"))
    couple(srv, global_id("b", "/app/x"), global_id("c", "/app/x"))
    lock(srv, "a", "/app/x", token=7)
    history_push(srv, "b", "/app/x", {"value": "old"}, user="bob")
    history_push(srv, "b", "/app/x", {"value": "older"}, user="bob")
    undo(srv, "b", "/app/x")
    unregister(srv, "c")


def lock_with_event(srv, instance_id, path, token=1):
    """The one-message action: a floor request that carries its event."""
    srv.clock.advance(0.01)
    srv.handle_message(
        Message(
            kind=kinds.LOCK_REQUEST,
            sender=instance_id,
            payload={
                "source": gid_to_wire(global_id(instance_id, path)),
                "token": token,
                "event": {
                    "type": "value_changed",
                    "source_path": path,
                    "params": {"value": "v"},
                    "instance_id": instance_id,
                },
            },
        )
    )


def drive_floor_workload(srv):
    """A database holding both floor shapes: ``a``'s event floor waits on
    ``b``'s ack and ``c``'s bare floor awaits its EVENT or UNLOCK, beside
    links, the locks both floors hold and history."""
    register(srv, "a", user="alice")
    register(srv, "b", user="bob")
    register(srv, "c", user="carol")
    couple(srv, global_id("a", "/app/x"), global_id("b", "/app/x"))
    history_push(srv, "b", "/app/x", {"value": "old"}, user="bob")
    lock_with_event(srv, "a", "/app/x", token=1)
    lock(srv, "c", "/app/z", token=2)
