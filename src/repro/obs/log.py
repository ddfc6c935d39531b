"""Structured logging for the runtime subsystems.

Every subsystem logs under the ``repro.`` namespace (``repro.net.aio``,
``repro.net.tcp``, ``repro.cluster.proc`` …) through stdlib
:mod:`logging`, with a :class:`~logging.NullHandler` on the root so a
library user who never configures logging sees nothing — exactly the old
silent behaviour — while an operator who calls :func:`setup_logging` (or
attaches their own handlers) gets key=value structured records for every
previously-silent drop and lost connection.

Use :func:`get_logger` for the logger and :func:`log_event` to emit::

    log = get_logger("net.aio")
    log_event(log, logging.WARNING, "send_queue_overflow",
              client=client_id, dropped=n, policy="drop")

renders as ``event=send_queue_overflow client=i2 dropped=3 policy=drop``.
"""

from __future__ import annotations

import logging
from typing import Any

#: Namespace root for all runtime loggers.
ROOT = "repro"

# A NullHandler on the namespace root keeps the library silent-by-default
# (no "No handlers could be found" warnings, no stderr spam).
logging.getLogger(ROOT).addHandler(logging.NullHandler())


def get_logger(subsystem: str) -> logging.Logger:
    """The logger for *subsystem*, e.g. ``get_logger("net.aio")``."""
    if subsystem.startswith(ROOT + ".") or subsystem == ROOT:
        return logging.getLogger(subsystem)
    return logging.getLogger(f"{ROOT}.{subsystem}")


def format_event(event: str, **fields: Any) -> str:
    """Render one structured record as ``event=... key=value ...``."""
    parts = [f"event={event}"]
    for key, value in fields.items():
        text = str(value)
        if " " in text or "=" in text:
            text = repr(text)
        parts.append(f"{key}={text}")
    return " ".join(parts)


def log_event(
    logger: logging.Logger, level: int, event: str, **fields: Any
) -> None:
    """Emit a structured record if *level* is enabled for *logger*."""
    if logger.isEnabledFor(level):
        logger.log(level, "%s", format_event(event, **fields))


def setup_logging(
    level: int = logging.INFO, stream=None
) -> logging.Handler:
    """Attach a stream handler to the ``repro`` namespace (for CLIs).

    Returns the handler so callers can remove it again.
    """
    handler = logging.StreamHandler(stream)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(name)s %(message)s")
    )
    root = logging.getLogger(ROOT)
    root.addHandler(handler)
    root.setLevel(level)
    return handler
