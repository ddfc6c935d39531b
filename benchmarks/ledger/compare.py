"""Compare two ledger files: ``compare.py A.json B.json`` (A is the base).

A ledger file holds one or more runs (``run.py --out FILE [--append]``).
For every workload and end-to-end metric this prints, per side, the median
over the runs' values with quartiles and spread (inter-quartile distance
over the median), the ratio B/A, and a verdict:

``same``        B's median is within the metric's bound of A's.
``better``      B's median is better by more than the bound and by more
                than either side's own runs differ, or every run of B
                reads better than every run of A.
``worse``       B's median is worse by more than the bound and by more
                than either side's own runs differ.
``unresolved``  the medians differ by more than the bound, but no more
                than the runs of one side differ among themselves (the
                largest over the smallest run median), or a side has a
                single run, so how far its median moves from run to run
                on this host was not measured.

A verdict of ``worse`` or ``better`` therefore needs at least two runs on
each side; on this shared host three or more, taken alternately.  Exact
metrics (message and byte counts, ``failed_share``) have no noise
allowance: any increase is ``worse``.  The exit status is non-zero when
any verdict is ``worse``, which covers a higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence

from metrics import END_TO_END, Metric, spread, summarize
from specs import SPECS


def run_shift(medians: Sequence[float]) -> float:
    """How far the run medians of one side lie apart, as a share of their
    median: the measured run-to-run shift."""
    middle = statistics.median(medians)
    return (max(medians) - min(medians)) / abs(middle) if middle else 0.0


def verdict(metric: Metric, base: Sequence[float], new: Sequence[float]) -> str:
    """Classify *new* against *base* (both: one median per run)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    a = statistics.median(base)
    b = statistics.median(new)
    if metric.exact:
        return "same" if a == b else ("worse" if sign * (b - a) > 0 else "better")
    if not a:
        return "same" if not b else "unresolved"
    worsening = sign * (b - a) / abs(a)
    if abs(worsening) <= metric.bound:
        return "same"
    if min(len(base), len(new)) < 2:
        return "unresolved"
    if worsening < 0 and all(sign * (y - x) < 0 for x in base for y in new):
        return "better"
    if abs(worsening) <= max(run_shift(base), run_shift(new)):
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def side(document: Dict[str, Any], workload: str, metric: str) -> Dict[str, Any]:
    """One side of one row: the medians of the runs that ran *workload*,
    and the statistics shown for them."""
    reports = [
        run["workloads"][workload]["end_to_end"][metric]
        for run in document["runs"]
        if metric in run["workloads"].get(workload, {}).get("end_to_end", {})
    ]
    medians = [report["median"] for report in reports]
    # One run: its repetitions are all the spread there is to show.
    shown = medians if len(medians) > 1 else reports[0]["values"] if reports else []
    stats = summarize(shown)
    stats.update(runs=medians, spread=spread(shown) if shown else 0.0)
    return stats


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric present in both files."""
    rows = []
    order = {spec.name: index for index, spec in enumerate(SPECS)}
    workloads = {name for run in base["runs"] for name in run["workloads"]}
    for workload in sorted(workloads, key=lambda name: order.get(name, len(order))):
        for metric in END_TO_END:
            a = side(base, workload, metric.name)
            b = side(new, workload, metric.name)
            if not a["runs"] or not b["runs"]:
                continue
            middle_a = statistics.median(a["runs"])
            middle_b = statistics.median(b["runs"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "base": a,
                    "new": b,
                    "ratio": middle_b / middle_a if middle_a else None,
                    "verdict": verdict(metric, a["runs"], b["runs"]),
                }
            )
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16}{'metric':<23}{'base median [q1, q3] spread runs':>46}"
        f"{'new median [q1, q3] spread runs':>46}{'new/base':>10}  verdict"
    ]
    for row in rows:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(
            f"{row['workload']:<16}{row['metric']:<23}"
            f"{_cell(row['base']):>46}{_cell(row['new']):>46}{ratio:>10}"
            f"  {row['verdict']}"
        )
    return "\n".join(lines)


def _cell(stats: Dict[str, Any]) -> str:
    return (
        f"{statistics.median(stats['runs']):.4f} [{stats['q1']:.4f}, {stats['q3']:.4f}]"
        f" {stats['spread']:6.1%} {len(stats['runs']):>2}"
    )


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(render(rows))
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(
        f"\n{len(rows)} comparisons, base {argv[0]}: "
        f"{len(worse)} worse, {unresolved} unresolved"
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
