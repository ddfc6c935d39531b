"""The ledger's metric tables and the statistics every report uses.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units, directions and bounds; ``BENCHMARK.json`` at the repository
root repeats them for the driver and a self-test keeps the two in step.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which the metric may worsen before
    #: a change counts as a regression (end-to-end metrics only).
    bound: float = 0.0
    #: Counts that must repeat exactly: any increase is a regression.
    exact: bool = False


#: What a user of the system sees, per workload.  The timing bounds are
#: three times the widest run-to-run spread measured on the development
#: host (``pair_aio``, README "Noise protocol"), which is also the widest
#: the driver accepts.  ``failed_share`` is part of every ledger report but
#: is *not* repeated in ``BENCHMARK.json``: the driver forbids metrics that
#: read 0 and carries failures in the ``attempted``/``failed`` keys of each
#: run instead.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("action_p50_ms", "ms", "lower", 0.25),
    Metric("actions_per_s", "1/s", "higher", 0.25),
    Metric("cpu_ms_per_action", "ms", "lower", 0.25),
    Metric("msgs_per_action", "count", "lower", 0.01, exact=True),
    Metric("wire_bytes_per_action", "bytes", "lower", 0.01, exact=True),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("failed_share", "ratio", "lower", 0.0, exact=True),
)

#: End-to-end metrics the driver's ``--trace 0`` line carries.
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.name != "failed_share")

PER_LAYER = (
    Metric("toolkit.feedback_us_per_action", "us", "lower"),
    Metric("toolkit.calls_per_action", "count", "lower"),
    Metric("core.emit_us_per_action", "us", "lower"),
    Metric("core.lock_wait_us_per_action", "us", "lower"),
    Metric("core.apply_us_per_action", "us", "lower"),
    Metric("core.dispatch_us_per_action", "us", "lower"),
    Metric("core.state_build_us_per_action", "us", "lower"),
    Metric("core.state_apply_us_per_action", "us", "lower"),
    Metric("net.codec.encode_us_per_action", "us", "lower"),
    Metric("net.codec.encode_calls_per_action", "count", "lower"),
    Metric("net.codec.decode_us_per_action", "us", "lower"),
    Metric("net.codec.decode_calls_per_action", "count", "lower"),
    Metric("net.codec.msgs_per_batch_call", "count", "higher"),
    Metric("net.transport.send_us_per_action", "us", "lower"),
    Metric("net.transport.batches_per_action", "count", "lower"),
    Metric("net.transport.msgs_per_batch", "count", "higher"),
    Metric("net.transport.dropped", "count", "lower"),
    Metric("net.transport.retries", "count", "lower"),
    Metric("server.handle_us_per_action", "us", "lower"),
    Metric("server.handle_calls_per_action", "count", "lower"),
    Metric("server.lock_us_per_action", "us", "lower"),
    Metric("server.route_us_per_action", "us", "lower"),
    Metric("server.closure_us_per_action", "us", "lower"),
    Metric("server.lock_denials", "count", "lower"),
    Metric("cluster.route_us_per_action", "us", "lower"),
    Metric("cluster.forward_wait_us_per_action", "us", "lower"),
    Metric("cluster.forwards_per_action", "count", "lower"),
    Metric("cluster.worker_cpu_ms_per_action", "ms", "lower"),
    Metric("persist.record_us_per_call", "us", "lower"),
    Metric("persist.sync_us_per_call", "us", "lower"),
    Metric("persist.journal_bytes_per_action", "bytes", "lower"),
    Metric("obs.cpu_overhead_ratio", "ratio", "lower"),
    Metric("bench.residual_us_per_action", "us", "lower"),
    Metric("bench.calib_ms", "ms", "lower"),
    Metric("bench.trace_overhead_ratio", "ratio", "lower"),
    # Demoted from the end-to-end table: on this shared host the tail does
    # not repeat within the issue's 0.10 (README, "Noise protocol").
    Metric("bench.action_p95_ms", "ms", "lower"),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share
    *q* of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly beyond the *q* rank."""
    return count - max(1, math.ceil(q * count)) if count else 0


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` exactly as the driver computes them."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return list(statistics.quantiles(values, n=4))


def summarize(values: Sequence[float]) -> Dict[str, object]:
    q1, _mid, q3 = quartiles(values)
    return {
        "median": statistics.median(values) if values else 0.0,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when flat)."""
    q1, _mid, q3 = quartiles(values)
    median = statistics.median(values) if values else 0.0
    return abs(q3 - q1) / abs(median) if median else 0.0
