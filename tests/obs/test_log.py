"""Unit tests for structured logging (repro.obs.log)."""

import ast
import io
import logging
import re
import socket
import time
from pathlib import Path

import pytest

from repro.net import aio, tcp
from repro.obs.log import format_event, get_logger, log_event, setup_logging


def test_get_logger_namespacing():
    assert get_logger("net.aio").name == "repro.net.aio"
    assert get_logger("repro.net.tcp").name == "repro.net.tcp"
    assert get_logger("repro").name == "repro"


def test_format_event_key_values():
    assert format_event("drop", client="i2", n=3) == "event=drop client=i2 n=3"


def test_format_event_quotes_awkward_values():
    text = format_event("x", msg="a b", expr="k=v")
    assert text == "event=x msg='a b' expr='k=v'"


def test_log_event_respects_level():
    stream = io.StringIO()
    handler = setup_logging(level=logging.WARNING, stream=stream)
    try:
        log = get_logger("net.test")
        log_event(log, logging.DEBUG, "quiet", n=1)
        log_event(log, logging.WARNING, "loud", n=2)
    finally:
        logging.getLogger("repro").removeHandler(handler)
    output = stream.getvalue()
    assert "event=quiet" not in output
    assert "event=loud n=2" in output


def test_silent_by_default():
    # The namespace root has a NullHandler: emitting with no configured
    # handlers must not raise or warn.
    log = get_logger("net.silent")
    log_event(log, logging.ERROR, "nobody_listens", x=1)


def test_overflow_drop_is_logged():
    """The aio transport's overflow drop emits a structured record: a
    handler burst of 8 sends to a connected peer, with a bound of 3,
    logs 5."""
    from repro.net.aio import AioHostTransport
    from repro.net.codec import encode
    from repro.net.message import Message

    def burst(message):
        for _ in range(8):
            transport.send(
                Message(kind="event", sender="x", to=message.sender, payload={})
            )

    stream = io.StringIO()
    handler = setup_logging(level=logging.WARNING, stream=stream)
    transport = AioHostTransport(burst, max_queue=3)
    try:
        with socket.create_connection(transport.address) as peer:
            peer.sendall(encode(Message(kind="event", sender="slow", payload={})))
            deadline = time.monotonic() + 5.0
            while stream.getvalue().count("send_queue_overflow") < 5:
                assert time.monotonic() < deadline, stream.getvalue()
                time.sleep(0.01)
    finally:
        transport.close()
        logging.getLogger("repro").removeHandler(handler)
    overflows = [
        line for line in stream.getvalue().splitlines() if "send_queue_overflow" in line
    ]
    assert len(overflows) == 5
    for line in overflows:
        assert "event=send_queue_overflow destination=slow kind=event" in line


def _logged_events(module):
    """The event names *module* passes to ``log_event`` (third argument)
    and ``format_event`` (first), read from its source."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            index = {"log_event": 2, "format_event": 0}.get(node.func.id)
            if index is not None:
                arg = node.args[index]
                assert isinstance(arg, ast.Constant), ast.dump(arg)
                names.add(arg.value)
    return names


@pytest.mark.parametrize("module", [aio, tcp], ids=["aio", "tcp"])
def test_observability_doc_lists_exactly_the_events_a_socket_module_logs(module):
    """docs/OBSERVABILITY.md's structured-logging row for the module
    names every event it logs, and no other."""
    doc = Path(__file__).parents[2] / "docs" / "OBSERVABILITY.md"
    (row,) = [
        line
        for line in doc.read_text().splitlines()
        if line.startswith(f"| `{module.__name__}` |")
    ]
    listed = re.findall(r"`(\w+)`", row.split("|")[2])
    assert sorted(listed) == sorted(_logged_events(module))
