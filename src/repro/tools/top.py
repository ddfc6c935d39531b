"""Live cluster dashboard: ``python -m repro.tools.top``.

A refreshing terminal view of a running deployment, driven entirely by
the Prometheus ``/metrics`` endpoint (``SessionConfig(metrics_port=...)``
— docs/OBSERVABILITY.md)::

    python -m repro.tools.top --url http://127.0.0.1:9464/metrics
    python -m repro.tools.top --url ... --once       # one frame (scripts/CI)
    python -m repro.tools.top --demo                 # self-contained demo
                                                     # cluster to watch

Each frame shows per-shard liveness (up / restarts / heartbeat age),
message throughput (msgs/s between frames), journal fsync
latency, the p50/p99 sync-latency decomposition from the histogram
buckets and the central database (§2.2: registrations, permission
rules, couple groups, floors and locks, historical UI states, plus
state sync and migrations).  On a multi-process cluster every scrape
transparently delta-pulls the workers, so the numbers cover the whole
fleet.  Per-object detail (who holds which floor, each object's undo
depth) is the server's serialized state:
``repro.persist.snapshot.capture_state(server)``.

The scrape parser is deliberately self-contained (stdlib only) and
doubles as a conformance check of the text exposition.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
import urllib.request
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net import kinds
from repro.server.routing import ROSTER_RESYNCS

__all__ = [
    "ParsedMetrics",
    "parse_prometheus_text",
    "quantile_from_buckets",
    "render_frame",
    "main",
]

#: ``name{labels} value`` label pair, with escaped-value support.
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_LINE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)(?:\s+\d+)?$"
)

Labels = Tuple[Tuple[str, str], ...]


def _unescape(value: str) -> str:
    return (
        value.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)


class ParsedMetrics:
    """A scraped exposition, queryable by name and label subset."""

    def __init__(self) -> None:
        #: name -> [(labels, value)] in exposition order.
        self.series: Dict[str, List[Tuple[Labels, float]]] = {}

    def add(self, name: str, labels: Labels, value: float) -> None:
        self.series.setdefault(name, []).append((labels, value))

    def get(self, name: str, **match: str) -> List[Tuple[Labels, float]]:
        """Series of *name* whose labels include every ``match`` pair."""
        want = set(match.items())
        return [
            (labels, value)
            for labels, value in self.series.get(name, ())
            if want.issubset(set(labels))
        ]

    def value(self, name: str, default: float = 0.0, **match: str) -> float:
        found = self.get(name, **match)
        return found[0][1] if found else default

    def total(self, name: str, **match: str) -> float:
        return sum(value for _, value in self.get(name, **match))

    def label_values(self, name: str, label: str) -> List[str]:
        """Distinct values of *label* across a family, first-seen order."""
        seen: Dict[str, None] = {}
        for labels, _ in self.series.get(name, ()):
            for key, value in labels:
                if key == label:
                    seen.setdefault(value, None)
        return list(seen)

    def histogram(
        self, name: str, **match: str
    ) -> Optional[Dict[str, object]]:
        """Reassemble one histogram: cumulative ``buckets``, count, sum."""
        buckets = [
            (
                _parse_value(dict(labels)["le"]),
                value,
            )
            for labels, value in self.get(f"{name}_bucket", **match)
            if any(k == "le" for k, _ in labels)
        ]
        if not buckets:
            return None
        buckets.sort(key=lambda item: item[0])
        return {
            "buckets": buckets,
            "count": self.value(f"{name}_count", **match),
            "sum": self.value(f"{name}_sum", **match),
        }


def parse_prometheus_text(text: str) -> ParsedMetrics:
    """Parse a 0.0.4 text exposition (the subset this repo emits)."""
    parsed = ParsedMetrics()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        matched = _LINE_RE.match(line)
        if not matched:
            continue
        name, _, label_blob, raw_value = matched.groups()
        labels: Labels = ()
        if label_blob:
            labels = tuple(
                (key, _unescape(value))
                for key, value in _LABEL_RE.findall(label_blob)
            )
        try:
            parsed.add(name, labels, _parse_value(raw_value))
        except ValueError:
            continue
    return parsed


def quantile_from_buckets(
    buckets: Iterable[Tuple[float, float]], count: float, q: float
) -> Optional[float]:
    """The smallest bucket bound covering quantile *q* (0..1).

    Standard Prometheus semantics: cumulative buckets, answer is the
    upper bound of the first bucket whose cumulative count reaches
    ``q * count``.  Returns None with no observations.
    """
    if count <= 0:
        return None
    target = q * count
    for bound, cumulative in buckets:
        if cumulative >= target:
            return bound
    return None


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return "inf"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}us"


def _fmt_rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:,.0f}"


def _database_lines(parsed: ParsedMetrics) -> List[str]:
    """The §2.2 database block: empty when no server is scraped.

    Every shard of a cluster holds the whole roster and ACL table, so
    those are read once (the largest replica), not summed; couple
    groups, locks, floors and histories live on one shard each and sum.
    """
    if "repro_server_registered_instances" not in parsed.series:
        return []

    def replicated(name: str) -> float:
        return max((value for _, value in parsed.get(name)), default=0.0)

    server = "repro_server_processed_total"
    router = "repro_router_processed_total"
    # A roster gap travels as RESYNC_REQUEST too; a cluster's router
    # answers it without a shard ever seeing it.
    roster = parsed.total(server, kind=ROSTER_RESYNCS) + parsed.total(
        router, kind=ROSTER_RESYNCS
    )
    continuity = parsed.total(server, kind=kinds.RESYNC_REQUEST) - parsed.total(
        server, kind=ROSTER_RESYNCS
    )
    lines = [
        "",
        "DATABASE",
        f"registered {replicated('repro_server_registered_instances'):.0f}   "
        f"rules {replicated('repro_server_permission_rules'):.0f}   "
        f"groups {parsed.total('repro_server_couple_groups'):.0f}   "
        f"links {parsed.total('repro_server_couple_links'):.0f}   "
        f"floors {parsed.total('repro_server_floors_held'):.0f}   "
        f"locks {parsed.total('repro_server_locks_held'):.0f}   "
        f"history {parsed.total('repro_server_history_entries'):.0f}",
    ]
    sync = (
        f"lock denials {parsed.total('repro_locks_denials_total'):.0f}   "
        f"state pushes {parsed.total(server, kind=kinds.PUSH_STATE):.0f}   "
        f"resyncs {continuity:.0f}   roster resyncs {roster:.0f}"
    )
    if "repro_cluster_migrations_total" in parsed.series:
        sync += (
            f"   migrations {parsed.total('repro_cluster_migrations_total'):.0f}"
        )
    lines.append(sync)
    return lines


def render_frame(
    parsed: ParsedMetrics,
    *,
    previous: Optional[ParsedMetrics] = None,
    interval: float = 0.0,
    source: str = "",
) -> str:
    """One dashboard frame from a scrape (and optionally the previous
    one, for msgs/s deltas)."""
    lines: List[str] = []
    shard_ids = parsed.label_values("repro_cluster_shard_up", "shard")
    up = sum(
        1
        for sid in shard_ids
        if parsed.value("repro_cluster_shard_up", shard=sid) >= 1.0
    )
    restarts = parsed.total("repro_cluster_shard_restarts_total")
    total_msgs = parsed.total("repro_traffic_messages_total")
    rate: Optional[float] = None
    if previous is not None and interval > 0:
        rate = max(
            0.0,
            (total_msgs - previous.total("repro_traffic_messages_total"))
            / interval,
        )
    header = (
        f"repro.tools.top — {time.strftime('%H:%M:%S')}"
        + (f" — {source}" if source else "")
    )
    lines.append(header)
    lines.append(
        f"shards {up}/{len(shard_ids)} up   restarts {restarts:.0f}   "
        f"msgs {total_msgs:,.0f}   msgs/s {_fmt_rate(rate)}"
    )
    if shard_ids:
        lines.append("")
        lines.append(
            f"{'SHARD':<10} {'UP':>3} {'RESTARTS':>9} {'HB-AGE':>8} "
            f"{'MSGS':>10} {'MSGS/S':>8} {'FSYNC-p99':>10} {'INSTANCES':>10}"
        )
        for sid in shard_ids:
            shard_up = parsed.value("repro_cluster_shard_up", shard=sid)
            age = parsed.value(
                "repro_cluster_shard_heartbeat_age_seconds",
                default=float("inf"),
                shard=sid,
            )
            processed = parsed.total(
                "repro_server_processed_total", shard=sid
            )
            shard_rate: Optional[float] = None
            if previous is not None and interval > 0:
                shard_rate = max(
                    0.0,
                    (
                        processed
                        - previous.total(
                            "repro_server_processed_total", shard=sid
                        )
                    )
                    / interval,
                )
            fsync = parsed.histogram("repro_persist_fsync_seconds", shard=sid)
            fsync_p99 = (
                quantile_from_buckets(
                    fsync["buckets"], fsync["count"], 0.99  # type: ignore[index]
                )
                if fsync
                else None
            )
            instances = parsed.value(
                "repro_server_registered_instances", shard=sid
            )
            lines.append(
                f"{sid:<10} {'up' if shard_up >= 1 else 'DOWN':>3} "
                f"{parsed.value('repro_cluster_shard_restarts_total', shard=sid):>9.0f} "
                f"{_fmt_seconds(age):>8} {processed:>10.0f} "
                f"{_fmt_rate(shard_rate):>8} {_fmt_seconds(fsync_p99):>10} "
                f"{instances:>10.0f}"
            )
    lines.extend(_database_lines(parsed))
    segments = parsed.label_values("repro_sync_latency_seconds_bucket", "segment")
    if segments:
        lines.append("")
        lines.append(
            f"{'SYNC-LATENCY':<14} {'COUNT':>8} {'p50':>10} {'p99':>10} "
            f"{'MEAN':>10}"
        )
        for segment in segments:
            hist = parsed.histogram(
                "repro_sync_latency_seconds", segment=segment
            )
            if not hist:
                continue
            count = hist["count"]
            mean = (
                hist["sum"] / count if count else None  # type: ignore[operator]
            )
            lines.append(
                f"{segment:<14} {count:>8.0f} "
                f"{_fmt_seconds(quantile_from_buckets(hist['buckets'], count, 0.5)):>10} "  # type: ignore[arg-type]
                f"{_fmt_seconds(quantile_from_buckets(hist['buckets'], count, 0.99)):>10} "  # type: ignore[arg-type]
                f"{_fmt_seconds(mean):>10}"
            )
    return "\n".join(lines) + "\n"


def _scrape(url: str, timeout: float) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _run_loop(
    scrape, *, interval: float, once: bool, source: str, out=None
) -> int:
    out = out or sys.stdout
    previous: Optional[ParsedMetrics] = None
    previous_at = 0.0
    while True:
        parsed = parse_prometheus_text(scrape())
        now = time.monotonic()
        frame = render_frame(
            parsed,
            previous=previous,
            interval=(now - previous_at) if previous is not None else 0.0,
            source=source,
        )
        if once:
            out.write(frame)
            return 0
        # Clear + home, then the frame: flicker-free enough for a tty.
        out.write("\x1b[2J\x1b[H" + frame)
        out.flush()
        previous, previous_at = parsed, now
        time.sleep(interval)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.top",
        description=__doc__.splitlines()[0],
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--url",
        help="a /metrics endpoint to watch "
        "(SessionConfig(metrics_port=...))",
    )
    source.add_argument(
        "--file",
        help="render one frame from a saved exposition file",
    )
    source.add_argument(
        "--demo",
        action="store_true",
        help="spin up a multi-process demo cluster and watch it",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds (default: 1.0)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (for scripts and CI)",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-scrape HTTP timeout (default: 5.0)",
    )
    args = parser.parse_args(argv)

    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        sys.stdout.write(
            render_frame(parse_prometheus_text(text), source=args.file)
        )
        return 0

    if args.demo:
        import tempfile
        import threading

        from repro.session import Session
        from repro.tools.metrics import build_workload_tree

        directory = tempfile.mkdtemp(prefix="repro-top-demo-")
        sess = Session(
            backend="aio",
            shards=2,
            processes=True,
            observability=True,
            persistence=directory,
            metrics_port=0,
        )
        stop = threading.Event()

        def churn() -> None:
            a = sess.create_instance("writer", user="alice")
            b = sess.create_instance("reader", user="bob")
            a.add_root(build_workload_tree())
            b.add_root(build_workload_tree())
            field = a.find_widget("/app/form/name")
            a.couple(field, ("reader", "/app/form/name"))
            n = 0
            while not stop.is_set():
                field.type_text(str(n % 10))
                n += 1
                stop.wait(0.1)

        worker = threading.Thread(target=churn, daemon=True)
        worker.start()
        host, port = sess.metrics_address
        url = f"http://{host}:{port}/metrics"
        try:
            return _run_loop(
                lambda: _scrape(url, args.timeout),
                interval=args.interval,
                once=args.once,
                source=f"demo cluster @ {url}",
            )
        except KeyboardInterrupt:
            return 0
        finally:
            stop.set()
            worker.join(timeout=5.0)
            sess.close()

    try:
        return _run_loop(
            lambda: _scrape(args.url, args.timeout),
            interval=args.interval,
            once=args.once,
            source=args.url,
        )
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
