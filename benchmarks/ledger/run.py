"""The action ledger: what one user action costs, end to end and per layer.

Ways in::

    # a ledger run: every workload, every metric, one trajectory point
    python benchmarks/ledger/run.py --seed 12 --out benchmarks/ledger/results/X.json

    # one run of one workload, as the benchmark driver invokes it
    python benchmarks/ledger/run.py --workload pair_aio --seed 3 --seconds 15 --trace 0

    # the ledger's own tests (not tier-1)
    python benchmarks/ledger/run.py --self-test

Both are the same run (:func:`collect`): rounds of one repetition per
workload until the time budget is used; ``--out`` writes what the driver
line would print, for every workload, into a ledger file that
``compare.py`` reads.

This process only orchestrates: every repetition runs in a fresh child
interpreter (``rep.py``) with all ``REPRO_*`` variables scrubbed, one
closed-loop driver thread, loopback only.  See README.md beside this file
for the protocol and the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER, summarize
from specs import SPEC_BY_NAME, SPECS

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC = os.path.join(ROOT, "src")
#: Scratch space of the repetitions (journals); git-ignored.  Inside the
#: checkout because the driver allows no writes outside it.
WORK = os.path.join(LEDGER_DIR, ".work")

#: Version of the ledger file format.
SCHEMA = 2
#: Fewest plain repetitions per workload a run reports from.
MIN_REPS = 3
#: A repetition is noisy when the host's slowdown during it exceeds the
#: lowest among the run's repetitions of its workload by more than this factor.
CALIB_TOLERANCE = 1.15
#: Seconds one child may take before it is killed.
CHILD_TIMEOUT = 150.0

WORKLOADS = tuple(spec.name for spec in SPECS)


def child_env(base: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob, plus ``src``."""
    source = os.environ if base is None else base
    env = {k: v for k, v in source.items() if not k.startswith("REPRO_")}
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return env


def run_repetition(
    workload: str,
    seed: int,
    mode: str = "plain",
    *,
    actions: int = 0,
    spans: str = "",
    env: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter and return its report."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    command = [
        sys.executable,
        os.path.join(LEDGER_DIR, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--workdir", workdir,
        "--actions", str(actions),
    ]  # fmt: skip
    if spans:
        command += ["--spans", spans]
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(env),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT)
    finally:
        # The child leads its own process group, shard workers included:
        # whatever happened, nothing it started outlives this call.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0 or not out.strip():
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise RuntimeError(
            f"{workload}/{mode} repetition failed (exit {child.returncode}):\n{tail}"
        )
    return json.loads(out.strip().splitlines()[-1])


def quiet(reps: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The repetitions measured while the host was quiet.

    Quiet means a slowdown within ``CALIB_TOLERANCE`` of the lowest among
    *reps* (one workload's: what an action leaves in the caches moves the
    probe a little, differently per workload).  Never fewer than
    ``MIN_REPS`` repetitions come back: the quietest of the rest fill up.
    """
    ranked = sorted(reps, key=lambda rep: rep["slowdown"])
    if not ranked:
        return []
    limit = CALIB_TOLERANCE * ranked[0]["slowdown"]
    kept = sum(rep["slowdown"] <= limit for rep in ranked)
    return ranked[: max(kept, min(MIN_REPS, len(ranked)))]


class Tally:
    """The repetitions of one workload inside one run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reps: Dict[str, List[Dict[str, Any]]] = {
            "plain": [], "traced": [], "obs": [], "twin": []
        }  # fmt: skip
        self.problems: List[str] = []

    def add(self, seed: int, mode: str, **options: Any) -> Dict[str, Any]:
        rep = run_repetition(self.workload, seed, mode, **options)
        self.problems += rep["problems"]
        self.reps[mode].append(rep)
        return rep

    # -- run-level values -----------------------------------------------------

    def kept(self, mode: str) -> List[Dict[str, Any]]:
        """Plain repetitions go through the noise filter; the rest are few."""
        if mode != "plain":
            return self.reps[mode]
        return quiet(self.reps[mode])

    def values(self, mode: str, key: str) -> List[float]:
        return [rep[key] for rep in self.kept(mode)]

    def median(self, mode: str, key: str) -> float:
        values = self.values(mode, key)
        return statistics.median(values) if values else 0.0

    def every(self) -> List[Dict[str, Any]]:
        """All repetitions run so far, of every mode, kept or not."""
        return [rep for reps in self.reps.values() for rep in reps]

    @property
    def attempted(self) -> int:
        return sum(rep["attempted"] for rep in self.every())

    @property
    def failed(self) -> int:
        return sum(rep["failed"] for rep in self.every())

    @property
    def correct(self) -> bool:
        return not self.problems

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        """Per metric: median, quartiles and values over plain repetitions."""
        report = {}
        for metric in END_TO_END:
            report[metric.name] = summarize(self.values("plain", metric.name))
            report[metric.name]["samples"] = sum(self.values("plain", "samples"))
        return report

    def per_layer(self) -> Dict[str, float]:
        """Every per-layer metric (0 where a layer is idle or unmeasured)."""
        layers = {metric.name: 0.0 for metric in PER_LAYER}
        sources = (("layers", self.reps["traced"]), ("counters", self.kept("plain")))
        for name in layers:
            for key, reps in sources:
                values = [rep[key][name] for rep in reps if name in rep[key]]
                if values:
                    layers[name] = statistics.median(values)
                    break
        for twin in self.reps["twin"]:
            for name in ("persist.record_us_per_call", "persist.sync_us_per_call"):
                layers[name] = twin["layers"][name]
        plain_cpu = self.median("plain", "cpu_ms_per_action")
        if self.reps["obs"] and plain_cpu:
            layers["obs.cpu_overhead_ratio"] = (
                self.median("obs", "cpu_ms_per_action") / plain_cpu
            )
        plain_p50 = self.median("plain", "action_p50_ms")
        if self.reps["traced"] and plain_p50:
            layers["bench.trace_overhead_ratio"] = (
                self.median("traced", "action_p50_ms") / plain_p50
            )
        layers["bench.calib_ms"] = statistics.median(
            rep["calib_ms"] for rep in self.every()
        )
        layers["bench.action_p95_ms"] = self.median("plain", "action_p95_ms")
        return layers

    def hits(self) -> Dict[str, int]:
        """Entry-point hit counts summed over traced and twin repetitions."""
        total: Dict[str, int] = {}
        for rep in self.reps["traced"] + self.reps["twin"]:
            for name, count in rep["hits"].items():
                total[name] = total.get(name, 0) + count
        return total

    def driver_line(self, trace: bool) -> Dict[str, Any]:
        """What the benchmark driver reads from one run of this workload."""
        if trace:
            layers = self.per_layer()
            metrics = {m.name: (layers[m.name], m.unit) for m in PER_LAYER}
        else:
            metrics = {
                m.name: (self.median("plain", m.name), m.unit)
                for m in DRIVER_END_TO_END
            }
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }

    def report(self) -> Dict[str, Any]:
        """This workload's part of a ledger file."""
        plain = self.kept("plain")
        return {
            "actions": plain[0]["actions"],
            "repetitions": len(plain),
            "discarded": len(self.reps["plain"]) - len(plain),
            "correct": self.correct,
            "problems": self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "end_to_end": self.end_to_end(),
            # As the clock read them, before the division by the slowdown.
            "measured": {
                key: statistics.median(rep["measured"][key] for rep in plain)
                for key in plain[0]["measured"]
            },
            "slowdown": self.values("plain", "slowdown"),
            "per_layer": self.per_layer(),
            "hits": self.hits(),
        }


def extra_modes(workload: str) -> List[str]:
    """The one-off repetitions a traced run adds for *workload*."""
    spec = SPEC_BY_NAME[workload]
    return ["obs"] * spec.obs_probe + ["twin"] * spec.journal


def collect(
    names: Sequence[str],
    seed: int,
    trace: bool,
    more: Callable[[int, float, float], bool],
    spans_dir: str = "",
) -> Dict[str, Tally]:
    """One run: rounds of one plain repetition per workload, round robin.

    *more(rounds, spent, last_round)* says whether to start another
    round, given the seconds the plain repetitions took so far and in the
    last round.  A traced run adds, in its first round, one traced
    repetition per workload and the ``obs`` and ``twin`` extras, outside
    that time; per-layer numbers come from those, end-to-end numbers never
    do.
    """
    tallies = {name: Tally(name) for name in names}
    spent = 0.0
    rounds = 0
    while True:
        last_round = 0.0
        for name, tally in tallies.items():
            started = time.monotonic()
            tally.add(seed, "plain")
            last_round += time.monotonic() - started
            if trace and not rounds:
                spans = os.path.join(spans_dir, f"{name}.json") if spans_dir else ""
                tally.add(seed, "traced", spans=spans)
                for mode in extra_modes(name):
                    tally.add(seed, mode)
        rounds += 1
        spent += last_round
        if not more(rounds, spent, last_round):
            break
    return tallies


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "network": "loopback only (127.0.0.1); memory backend simulated",
        "load": "closed loop, 1 driver thread, each repetition pinned to 1 cpu",
    }


def write_ledger(path: str, run: Dict[str, Any], append: bool) -> None:
    """Write *run* to the ledger file at *path*, after the runs already
    there when *append* is set."""
    document = {
        "schema": SCHEMA,
        "metrics": {
            "end_to_end": [vars(m) for m in END_TO_END],
            "per_layer": [
                {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
            ],
        },
        "runs": [],
    }
    if append and os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
        if existing.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: not a schema-{SCHEMA} ledger, cannot append")
        document["runs"] = existing["runs"]
    document["runs"].append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def render(run: Dict[str, Any]) -> str:
    """Every metric of one run by name with unit, sample count and bound."""
    host = run["host"]
    lines = [
        f"action ledger, seed {run['seed']}: {host['nproc']} cpus, "
        f"python {host['python']}, {host['network']}, {host['load']}"
    ]
    bounds = {m.name: m for m in END_TO_END}
    units = {m.name: m.unit for m in PER_LAYER}
    for name, report in run["workloads"].items():
        lines.append(
            f"\n== {name}: {report['actions']} actions x {report['repetitions']} "
            f"repetitions ({report['discarded']} noisy set aside), "
            f"failed {report['failed']}/{report['attempted']}, "
            f"output check {'ok' if report['correct'] else 'FAILED'}"
        )
        for metric, stats in report["end_to_end"].items():
            spec = bounds[metric]
            bound = "exact" if spec.exact else f"{spec.bound:.2f}"
            lines.append(
                f"  {metric:<34}{stats['median']:>14.4f} {spec.unit:<6}"
                f" q1 {stats['q1']:.4f} q3 {stats['q3']:.4f}"
                f"  n={stats['n']} samples={stats['samples']} bound={bound}"
            )
        for metric, value in report["per_layer"].items():
            lines.append(f"  {metric:<34}{value:>14.4f} {units[metric]}")
    return "\n".join(lines)


def self_test() -> int:
    import unittest

    suite = unittest.defaultTestLoader.discover(
        os.path.join(LEDGER_DIR, "tests"), pattern="test_*.py", top_level_dir=LEDGER_DIR
    )
    outcome = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if outcome.wasSuccessful() else 1


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through run_repetition's cleanup


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument(
        "--workload", choices=WORKLOADS, action="append", help="default: all seven"
    )
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="time budget per workload"
    )
    parser.add_argument(
        "--reps", type=int, default=0, help="exactly this many rounds, not a budget"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="default: 1 with --out"
    )
    parser.add_argument("--out", help="write the run to this ledger file")
    parser.add_argument("--append", action="store_true", help="keep the runs in --out")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    names = args.workload or list(WORKLOADS)
    if not args.out and len(names) != 1:
        parser.error("give --out FILE for a ledger run or one --workload to print")
    if args.reps and args.reps < MIN_REPS:
        parser.error(f"--reps must be at least {MIN_REPS}")
    trace = bool(args.out) if args.trace is None else bool(args.trace)
    budget = args.seconds * len(names)

    def more(rounds: int, spent: float, last_round: float) -> bool:
        if args.reps:
            return rounds < args.reps
        return rounds < MIN_REPS or spent + last_round <= budget

    spans_dir = ""
    if args.out and trace:
        spans_dir = os.path.splitext(args.out)[0] + ".spans"
        os.makedirs(spans_dir, exist_ok=True)
    tallies = collect(names, args.seed, trace, more, spans_dir)
    for tally in tallies.values():
        for problem in tally.problems:
            print(f"output check failed: {tally.workload}: {problem}", file=sys.stderr)
    if not args.out:
        print(json.dumps(tallies[names[0]].driver_line(trace)))
        return 0
    run = {
        "seed": args.seed,
        "host": host_facts(),
        "protocol": {
            "statistic": "median over repetitions of the per-repetition value",
            "calib_tolerance": CALIB_TOLERANCE,
            "traced": trace,
        },
        "workloads": {name: tally.report() for name, tally in tallies.items()},
    }
    write_ledger(args.out, run, args.append)
    print(render(run))
    print(f"\nwrote {args.out}" + (f"; spans in {spans_dir}/" if spans_dir else ""))
    return 0 if all(tally.correct for tally in tallies.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
