"""Session recording and replay, plus journal time travel.

Deterministic reproduction of an interactive run: record every executed
event from an instance's trace into a JSON-safe log, then replay the log
against a fresh instance (or a whole fresh session).  Used for

* debugging ("what sequence led to this state?"),
* the E6 experiment's action-replay arm,
* regression fixtures (a recorded session is a compact integration test).

With event-sourced persistence on (docs/PERSISTENCE.md) the *server*
side is replayable too: :func:`state_at` reconstructs the server
database as of any journal sequence number, and ``python -m
repro.tools.replay --log-dir DIR --at-seq N`` prints it — "what did the
server believe at op N?" without touching the live deployment.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.core.instance import ApplicationInstance
from repro.errors import PathError
from repro.toolkit.events import Event
from repro.toolkit.widget import UIObject


class SessionRecorder:
    """Tap an instance's local events into a serializable log.

    Only *locally initiated* events are recorded (remote re-executions are
    a consequence, not an input); replaying the log through the coupling
    layer regenerates the remote effects.
    """

    def __init__(self, instance: ApplicationInstance):
        self.instance = instance
        self._mark = len(instance.trace)

    def cut(self) -> List[Dict[str, Any]]:
        """Return the log of events since construction (or the last cut)."""
        events = self.instance.trace.events()[self._mark:]
        self._mark = len(self.instance.trace)
        return [
            event.to_wire()
            for event in events
            if event.instance_id == self.instance.instance_id
        ]

    def dumps(self) -> str:
        return json.dumps(self.cut(), separators=(",", ":"))


def loads(log: str) -> List[Dict[str, Any]]:
    data = json.loads(log)
    if not isinstance(data, list):
        raise ValueError("a session log is a JSON array of events")
    return data


def replay(
    log: Iterable[Mapping[str, Any]],
    instance: ApplicationInstance,
    *,
    strict: bool = True,
) -> int:
    """Re-fire every logged event on *instance*'s widgets.

    Events go through ``widget.fire`` — i.e. through the full coupling
    pipeline, locks and broadcasts included — so a replay against a live
    session reproduces the original collaboration.  Returns the number of
    events fired.  With ``strict=False``, events whose widget no longer
    exists are skipped instead of raising.
    """
    fired = 0
    for entry in log:
        event = Event.from_wire(dict(entry))
        widget = instance.find_widget(event.source_path)
        if widget is None or widget.destroyed:
            if strict:
                raise LookupError(
                    f"no widget at {event.source_path!r} to replay onto"
                )
            continue
        widget.fire(event.type, user=event.user, **dict(event.params))
        fired += 1
    return fired


def replay_locally(
    log: Iterable[Mapping[str, Any]],
    root: UIObject,
    *,
    strict: bool = True,
) -> int:
    """Apply a log to a bare widget tree (no instance, no network).

    The offline variant: feedback and callbacks run, nothing is sent.
    This is the E6 'action replay' reconciliation path.
    """
    applied = 0
    for entry in log:
        event = Event.from_wire(dict(entry))
        try:
            widget = root.find(event.source_path)
        except PathError:
            if strict:
                raise
            continue
        widget.deliver(event.retargeted(widget.pathname, ""))
        applied += 1
    return applied


# ---------------------------------------------------------------------------
# Journal time travel (event-sourced persistence)
# ---------------------------------------------------------------------------


def state_at(
    directory: str,
    at_seq: Optional[int] = None,
    **server_kwargs: Any,
) -> Dict[str, Any]:
    """The server database as of journal position *at_seq*.

    Rebuilds a server from the journal in *directory* (snapshot + log
    suffix, exactly the crash-recovery path) stopping after *at_seq*
    (``None`` = the present), and returns a JSON-safe report:
    ``{"seq", "clock", "fingerprint", "state", "stats"}``.
    """
    from repro.persist import PersistenceConfig, recover_server
    from repro.persist.snapshot import capture_state, state_fingerprint

    persistence = PersistenceConfig(directory=directory).build()
    try:
        server = recover_server(persistence, at_seq=at_seq, **server_kwargs)
        state = capture_state(server)
        return {
            "seq": (
                at_seq if at_seq is not None else persistence.log.last_seq
            ),
            "last_seq": persistence.log.last_seq,
            "clock": server.clock.now(),
            "fingerprint": state_fingerprint(state),
            "state": state,
            "stats": {
                "registered": len(server.registry),
                "couple_links": len(server.couples),
                "locks_held": len(server.locks),
                "floors_held": len(server.floors),
                "history_entries": len(server.history),
            },
        }
    finally:
        persistence.close()


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.tools.replay`` — journal time travel."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.replay",
        description=(
            "Reconstruct the server database from an op-log directory, "
            "optionally as of a historical sequence number."
        ),
    )
    parser.add_argument(
        "--log-dir", required=True,
        help="persistence directory (the one holding oplog/ and snapshots/)",
    )
    parser.add_argument(
        "--at-seq", type=int, default=None,
        help="stop replay after this sequence number (default: the present)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="include the complete captured state, not just the summary",
    )
    args = parser.parse_args(argv)
    report = state_at(args.log_dir, at_seq=args.at_seq)
    if not args.full:
        report = {k: v for k, v in report.items() if k != "state"}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
