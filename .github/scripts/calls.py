#!/usr/bin/env python3
"""Python-level calls per timed action of one ledger workload.

Builds the workload exactly as a ledger repetition does
(``benchmarks/ledger/workloads.py``, imported read-only), runs its set-up
and its own untimed warm-up, then counts every ``call`` event the
profiler reports across the timed actions and prints the count divided
by the number of actions.  Calls into C (``c_call``) are not counted.

Every thread is profiled: the counter is installed with
``threading.setprofile`` (and ``sys.setprofile`` on the calling thread)
before the workload's set-up builds its deployment, so the aio loop
thread, the tcp host's accept and reader threads and the tcp clients'
reader threads all run it from their first instruction.  It counts only
while a flag is on, which it is over the timed actions alone.  Each
thread keeps its own tally, and the tallies are summed by role — the
thread's name with every run of digits replaced by ``N`` (``MainThread``
is the calling thread, ``aio-host-loop`` the aio loop) — and each role's
share is printed beside the total.  Each role's line also counts its
loop passes (``EventLoop._run_once`` in ``repro.net.aio``) and self-pipe
writes (``EventLoop._write_to_self``, one per ``call_soon_threadsafe``
from another thread) per action: the
thread hand-offs, which a call count alone does not separate from
work.  The count repeats exactly on a
workload whose actions run on the calling thread alone
(``fanout64_memory``); on a socket backend the other threads' shares
also count their own wake-ups, which depend on scheduling.  A count
compares two versions of one program on one interpreter; it says nothing
about time.

Standard library only.  Usage, from the repository root::

    python .github/scripts/calls.py                          # fanout64_memory
    python .github/scripts/calls.py --workload fanout64_memory --seed 990
    python .github/scripts/calls.py --workload fanout64_aio  # + the loop thread
    python .github/scripts/calls.py --workload pair_tcp      # + the reader threads
    python .github/scripts/calls.py --top 20                 # also the busiest callees
"""

from __future__ import annotations

import argparse
import collections
import os
import re
import sys
import tempfile
import threading
from typing import Callable, Counter, List, Optional, Tuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
LEDGER = os.path.join(ROOT, "benchmarks", "ledger")

#: ``repro.net.aio.EventLoop`` methods whose calls count a hand-off
#: between threads, with the name printed for them: one pass of the loop
#: (a wake-up when the loop was asleep in ``select``), and one byte
#: written to the loop's self-pipe by ``call_soon_threadsafe`` (a thread
#: waking the loop).  No other function of that file has these names.
HAND_OFFS = {"_run_once": "loop passes", "_write_to_self": "self-pipe writes"}
LOOP_FILE = os.path.join(ROOT, "src", "repro", "net", "aio.py")


def thread_role(name: str) -> str:
    """A thread's role: its name with every run of digits replaced by N
    (``Thread-7 (_reader_loop)`` and ``Thread-9 (_reader_loop)`` are one
    role, the tcp host's readers)."""
    return re.sub(r"\d+", "N", name)


def counting_profiler(
    counting: List[bool], tallies: List[Tuple[str, Counter]]
) -> Callable[..., None]:
    """A profile function for every thread: while ``counting[0]`` holds,
    count each ``call`` event by code object in the running thread's own
    tally (appended to *tallies* with the thread's role on its first
    counted call), so no count is shared between threads."""
    local = threading.local()

    def profile(frame, event, _arg) -> None:
        if event != "call" or not counting[0]:
            return
        tally = getattr(local, "tally", None)
        if tally is None:
            tally = local.tally = collections.Counter()
            tallies.append((thread_role(threading.current_thread().name), tally))
        tally[frame.f_code] += 1

    return profile


def count_calls(workload_name: str, seed: int, actions: int, top: int) -> int:
    """Run one workload and print calls per timed action.

    Returns 0, or 1 when an action failed or the workload's output check
    found a problem (the count is printed either way).  The divisor is the
    number of actions the workload actually timed, which can differ from
    the *actions* asked for (churn rounds it up to an even count).
    """
    sys.path[:0] = [os.path.join(ROOT, "src"), LEDGER]
    from specs import SPEC_BY_NAME
    from workloads import build

    spec = SPEC_BY_NAME[workload_name]
    actions = actions or spec.actions
    counting = [False]
    tallies: List[Tuple[str, Counter]] = []
    profile = counting_profiler(counting, tallies)

    with tempfile.TemporaryDirectory() as workdir:
        workload = build(spec, seed, workdir, actions)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            workload.setup()
            for k in range(workload.warmup):
                workload.act(k)
                workload.settle()
            workload.quiesce()
            failed = 0
            counting[0] = True
            try:
                for k in range(workload.warmup, workload.warmup + workload.actions):
                    if workload.act(k) is None or not workload.settle():
                        failed += 1
            finally:
                counting[0] = False
            problems = workload.check()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            workload.close()
    timed = workload.actions
    by_role: Counter = collections.Counter()
    hand_offs = {name: collections.Counter() for name in HAND_OFFS}
    callees: Counter = collections.Counter()
    for role, tally in tallies:
        by_role[role] += sum(tally.values())
        for code, n in tally.items():
            where = os.path.relpath(code.co_filename, ROOT)
            callees[f"{where}:{code.co_name}"] += n
            if code.co_name in HAND_OFFS and code.co_filename == LOOP_FILE:
                hand_offs[code.co_name][role] += n
    calls = sum(by_role.values())
    share = "; ".join(f"{role} {n / timed:.2f}" for role, n in by_role.most_common())
    print(
        f"{workload_name}: {calls / timed:.2f} Python calls per action "
        f"({share}; {calls} over {timed} actions, seed {seed}, failed {failed}, "
        f"python {sys.version.split()[0]})"
    )
    for role, n in by_role.most_common():
        counts = ", ".join(
            f"{hand_offs[name][role] / timed:.2f} {label}"
            for name, label in HAND_OFFS.items()
        )
        print(f"  {role}: {n / timed:.2f} calls, {counts} per action")
    for name, n in callees.most_common(top):
        print(f"  {n / timed:9.2f}  {name}")
    if failed or problems:
        print(f"output check failed: {failed} failed actions, {problems[:3]}")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fanout64_memory")
    parser.add_argument("--seed", type=int, default=990)
    parser.add_argument(
        "--actions", type=int, default=0, help="timed actions (default: the spec's)"
    )
    parser.add_argument(
        "--top", type=int, default=0, help="also list the N most-called functions"
    )
    args = parser.parse_args(argv)
    return count_calls(args.workload, args.seed, args.actions, args.top)


if __name__ == "__main__":
    sys.exit(main())
