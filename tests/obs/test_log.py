"""Unit tests for structured logging (repro.obs.log)."""

import io
import logging
import time

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
    """The aio transport's overflow drop emits a structured record."""
    from repro.net.aio import AioHostTransport, BatchConfig
    from repro.net.message import Message

    stream = io.StringIO()
    handler = setup_logging(level=logging.WARNING, stream=stream)
    transport = AioHostTransport(
        lambda message: None,
        # Nobody connects as "slow": the first message parks in backoff.
        config=BatchConfig(max_queue=1, retry_initial=30.0),
    )
    try:
        for _ in range(2):
            transport.send(Message(kind="event", sender="x", to="slow", payload={}))
        deadline = time.monotonic() + 5.0
        while "send_queue_overflow" not in stream.getvalue():
            assert time.monotonic() < deadline, stream.getvalue()
            time.sleep(0.01)
    finally:
        transport.close()
        logging.getLogger("repro").removeHandler(handler)
    output = stream.getvalue()
    assert "event=send_queue_overflow" in output
    assert "destination=slow" in output
    assert "kind=event" in output
