"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this module as a child process (cold module-global
memo tables, honest ``peak_rss_mb``) and reads the one JSON object it
prints.  Modes:

``plain``   untraced; the only source of end-to-end metrics.
``traced``  the shim of :mod:`shim` is installed before the session is
            built; adds per-layer costs and entry-point hit counts.
``obs``     untraced, ``Session(observability=True)``.
``twin``    traced in-process twin of ``pair_proc2`` on the memory
            backend with an fsync-always journal, for the two persist
            timings the router process cannot see.

Noise protocol (README.md has the measurements behind it).  The host is a
shared 2-vCPU VM whose interpreter speed moves by 20-40 % for minutes at
a time, in millisecond bursts whose share drifts.  Two defences:

* the whole repetition, shard workers included, is pinned to one CPU
  (cross-vCPU wake-ups cost every threaded workload 10-50 %, unsteadily);
* a fixed calibration probe (:func:`probe_ms`) is timed before the first
  and after every action and around every set-up.  ``slowdown`` is the
  mean probe over :data:`REFERENCE_PROBE_MS`, and every time this module
  reports is the measured time divided by the slowdown measured beside
  it: milliseconds *at reference speed*.  Each latency is divided by the
  mean of its two neighbouring probes, totals by the mean over the timed
  phase.

Every statistic is taken over the whole timed phase; nothing is selected
by its outcome.  ``run.py`` sets aside repetitions whose slowdown exceeds
1.15x the lowest among the run's repetitions of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from metrics import beyond, percentile

MODES = ("plain", "traced", "obs", "twin")

#: What the calibration probe encodes and decodes: a message of the size
#: and shape the program sends for one commit.
PROBE_MESSAGE = {
    "kind": "event",
    "src": "i00",
    "dst": "i01",
    "seq": 12345,
    "payload": {
        "path": "/ui/field",
        "event": "value_changed",
        "value": "abcdefghijklmnopqrstuvwx",
        "ts": 1234567.891,
    },
}
#: JSON round trips in one probe.
PROBE_TRIPS = 32
#: Milliseconds the probe takes at reference speed: this host when quiet,
#: read between the actions of a workload.  A constant, so numbers of
#: different runs and commits share one scale; on a host of another speed
#: every timing is off by one common factor.
REFERENCE_PROBE_MS = 0.23
#: Probes timed on each side of one set-up (more come between its steps).
SETUP_PROBES = 8


def probe_ms() -> float:
    """Milliseconds one fixed calibration probe takes.

    The probe does the kind of work the program does (build, encode,
    decode and drop small dicts and strings with the stdlib ``json``), so
    the host's slow regimes slow it about as much as they slow an action;
    a pure arithmetic loop moves only half as far (README, "Noise
    protocol").  It runs none of the program's code: nothing but the host
    moves it.
    """
    started = time.perf_counter()
    for _ in range(PROBE_TRIPS):
        json.loads(json.dumps(PROBE_MESSAGE))
    return (time.perf_counter() - started) * 1000.0


def slowdown(probes: Sequence[float]) -> float:
    """How much slower than reference speed the host ran during *probes*."""
    return statistics.fmean(probes) / REFERENCE_PROBE_MS


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and every thread and child it starts) to one CPU.

    The highest allowed CPU is used: CPU 0 tends to serve interrupts.
    Returns the CPU, or ``None`` where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process (0.0 once gone).

    Per-thread ``schedstat`` counts nanoseconds; ``stat`` counts 10 ms
    ticks and is only the fallback.
    """
    try:
        total = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        if total:
            return total / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def timed_setup(make_workload) -> Tuple[Any, float]:
    """Build and set up one deployment; seconds it took at reference speed.

    Probes are timed before, after and, through the workload's ``pause``
    hook, between the steps of the set-up; the pauses are not set-up time.
    """
    clock = time.perf_counter
    probes = [probe_ms() for _ in range(SETUP_PROBES)]
    paused = 0.0

    def pause() -> None:
        nonlocal paused
        began = clock()
        probes.append(probe_ms())
        paused += clock() - began

    workload = make_workload(pause)
    try:
        started = clock()
        workload.setup()
        seconds = clock() - started - paused
    except BaseException:
        workload.close()
        raise
    probes += [probe_ms() for _ in range(SETUP_PROBES)]
    return workload, seconds / slowdown(probes)


class TimedPhase:
    """The timed actions of one repetition, a probe beside each."""

    def __init__(self, workload, pids: Sequence[int]):
        #: ``(begin, end)`` of every action, settling included.
        self.windows: List[Tuple[float, float]] = []
        #: Measured latency of every completed action, seconds.
        self.latencies: List[float] = []
        #: The same at reference speed.
        self.steady: List[float] = []
        self.failed = 0
        clock = time.perf_counter
        probes = [probe_ms()]
        probe_s = 0.0
        workers0 = sum(_proc_cpu_s(pid) for pid in pids)
        cpu0 = time.process_time()
        for k in range(workload.warmup, workload.warmup + workload.actions):
            begin = clock()
            latency = workload.act(k)
            settled = workload.settle()
            end = clock()
            probes.append(probe_ms())
            probe_s += clock() - end
            self.windows.append((begin, end))
            if latency is None or not settled:
                self.failed += 1
                continue
            self.latencies.append(latency)
            beside = (probes[-2] + probes[-1]) / (2.0 * REFERENCE_PROBE_MS)
            self.steady.append(latency / beside)
        # The probes burn CPU of this process only; take them back out.
        self.cpu_s = time.process_time() - cpu0 - probe_s
        self.workers_s = sum(_proc_cpu_s(pid) for pid in pids) - workers0
        self.wall_s = sum(end - begin for begin, end in self.windows)
        self.calib_ms = statistics.fmean(probes)
        self.slowdown = slowdown(probes)


def _per_layer(tracer, phase: TimedPhase, actions: int) -> Dict[str, Any]:
    """Per-layer metric values and entry-point hits of the timed phase.

    Durations are at reference speed, like the end-to-end timings.
    """
    from shim import busy_per_thread, by_bucket, self_times

    costs = self_times(tracer.threads, phase.windows)
    buckets = by_bucket(tracer.entries, costs)
    per_action = 1e6 / (actions * phase.slowdown)

    def us(name: str) -> float:
        return buckets[name].self_s * per_action

    def calls(name: str) -> float:
        return buckets[name].calls / actions

    def per_call_us(name: str) -> float:
        bucket = buckets[name]
        if not bucket.calls:
            return 0.0
        return bucket.self_s * 1e6 / (bucket.calls * phase.slowdown)

    waits = [i for i, entry in enumerate(tracer.entries) if entry.wait]
    busy = busy_per_thread(tracer.threads, phase.windows, waits)
    busy_s = sum(busy.values())
    batch = buckets["net.codec.encode_batch"]
    layers = {
        "toolkit.feedback_us_per_action": us("toolkit.feedback"),
        "toolkit.calls_per_action": calls("toolkit.feedback"),
        "core.emit_us_per_action": us("core.emit"),
        "core.lock_wait_us_per_action": us("core.lock_wait"),
        "core.apply_us_per_action": us("core.apply"),
        "core.dispatch_us_per_action": us("core.dispatch"),
        "core.state_build_us_per_action": us("core.state_build"),
        "core.state_apply_us_per_action": us("core.state_apply"),
        "net.codec.encode_us_per_action": us("net.codec.encode")
        + us("net.codec.encode_batch"),
        "net.codec.encode_calls_per_action": calls("net.codec.encode")
        + calls("net.codec.encode_batch"),
        "net.codec.decode_us_per_action": us("net.codec.decode")
        + us("net.codec.feed"),
        "net.codec.decode_calls_per_action": calls("net.codec.decode"),
        "net.codec.msgs_per_batch_call": (
            batch.weight / batch.calls if batch.calls else 0.0
        ),
        "net.transport.send_us_per_action": us("net.transport.send"),
        "server.handle_us_per_action": us("server.handle"),
        "server.handle_calls_per_action": calls("server.handle"),
        "server.lock_us_per_action": us("server.lock"),
        "server.route_us_per_action": us("server.route"),
        "server.closure_us_per_action": us("server.closure"),
        "cluster.route_us_per_action": us("cluster.route"),
        "cluster.forward_wait_us_per_action": us("cluster.forward_wait"),
        "cluster.forwards_per_action": calls("cluster.forward_wait"),
        "persist.record_us_per_call": per_call_us("persist.record"),
        "persist.sync_us_per_call": per_call_us("persist.sync"),
        "bench.residual_us_per_action": (phase.wall_s - busy_s) * per_action,
    }
    return {
        "layers": layers,
        "hits": {tracer.entries[i].name: cost.calls for i, cost in costs.items()},
        "traced_wall_us_per_action": phase.wall_s * per_action,
        "busy_us_per_action": busy_s * per_action,
        "busiest_thread_us_per_action": max(busy.values(), default=0.0) * per_action,
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "workload": args.workload,
        "mode": args.mode,
        "seed": args.seed,
        "cpu": pin_to_one_cpu(),
    }
    tracer = None
    if args.mode in ("traced", "twin"):
        # Import everything that may alias an entry point, then patch,
        # all before any session (and its bound handlers) exists.
        import repro.cluster.proc  # noqa: F401
        import repro.net.binary  # noqa: F401
        import repro.session  # noqa: F401
        from shim import Tracer

        tracer = Tracer()
        tracer.install()

    from completion import forbid_pump
    from specs import SPEC_BY_NAME
    from workloads import build

    spec = SPEC_BY_NAME[args.workload]
    options: Dict[str, Any] = {"observability": args.mode == "obs"}
    actions = args.actions or spec.actions
    built = 0

    def make_workload(pause):
        # A directory of its own: a journal left by the previous
        # deployment would be recovered from, not started.
        nonlocal built
        built += 1
        workdir = os.path.join(args.workdir, str(built))
        os.makedirs(workdir)
        if args.mode == "twin":
            from repro.persist import PersistenceConfig

            options["shape"] = {
                "backend": "memory",
                "persistence": PersistenceConfig(
                    directory=os.path.join(workdir, "journal"), fsync="always"
                ),
            }
        return build(spec, args.seed, workdir, actions, pause=pause, **options)

    # The deployment that is measured is the first one this interpreter
    # builds; the others, for the set-up time only, come after it.
    workload, seconds = timed_setup(make_workload)
    setups = [seconds]
    try:
        for k in range(workload.warmup):
            workload.act(k)
            workload.settle()
        workload.quiesce()

        session = workload.session
        actions = workload.actions
        pids = workload.worker_pids()
        traffic0 = session.traffic()
        denials0 = workload.lock_denials()
        journal0 = workload.journal_bytes()
        with forbid_pump(session) as violations:
            phase = TimedPhase(workload, pids)
            if not workload.quiesce():
                violations.append("deployment did not quiesce after the timed phase")
        traffic1 = session.traffic()

        def moved(key: str) -> int:
            return int(traffic1[key]) - int(traffic0[key])

        done = len(phase.latencies)
        steady_wall_s = phase.wall_s / phase.slowdown
        cpu_s = (phase.cpu_s + phase.workers_s) / phase.slowdown
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak += sum(_proc_peak_rss_mb(pid) for pid in pids)
        batches = moved("batches")
        result.update(
            actions=actions,
            attempted=actions,
            failed=phase.failed,
            problems=list(violations) + workload.check(),
            calib_ms=phase.calib_ms,
            slowdown=phase.slowdown,
            samples=done,
            beyond_p95=beyond(done, 0.95),
            action_p50_ms=percentile(phase.steady, 0.50) * 1e3 if done else 0.0,
            action_p95_ms=percentile(phase.steady, 0.95) * 1e3 if done else 0.0,
            actions_per_s=done / steady_wall_s,
            cpu_ms_per_action=cpu_s * 1e3 / actions,
            msgs_per_action=moved("messages") / actions,
            wire_bytes_per_action=moved("bytes") / actions,
            failed_share=phase.failed / actions,
            peak_rss_mb=peak,
            # As the clock read them, before the division by `slowdown`.
            measured={
                "action_p50_ms": (
                    percentile(phase.latencies, 0.50) * 1e3 if done else 0.0
                ),
                "actions_per_s": done / phase.wall_s,
                "cpu_ms_per_action": (phase.cpu_s + phase.workers_s) * 1e3 / actions,
            },
            counters={
                "net.transport.batches_per_action": batches / actions,
                "net.transport.msgs_per_batch": (
                    moved("batched_messages") / batches if batches else 0.0
                ),
                "net.transport.dropped": moved("dropped"),
                "net.transport.retries": moved("retries"),
                "server.lock_denials": workload.lock_denials() - denials0,
                "cluster.worker_cpu_ms_per_action": (
                    phase.workers_s * 1e3 / (actions * phase.slowdown)
                ),
                "persist.journal_bytes_per_action": (
                    (workload.journal_bytes() - journal0) / actions
                ),
            },
        )
        if tracer is not None:
            result.update(_per_layer(tracer, phase, actions))
            if args.spans:
                tracer.dump(args.spans, phase.windows[0][0])
    finally:
        workload.close()
    while len(setups) < spec.setups:
        workload, seconds = timed_setup(make_workload)
        workload.close()
        setups.append(seconds)
    result.update(setups=len(setups), setup_s=statistics.median(setups))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--actions", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
