#!/usr/bin/env python3
"""Python-level calls per timed action of one ledger workload.

Builds the workload exactly as a ledger repetition does
(``benchmarks/ledger/workloads.py``, imported read-only), runs its set-up
and its own untimed warm-up, then counts every ``call`` event
``sys.setprofile`` reports across the timed actions and prints the count
divided by the number of actions.  Calls into C (``c_call``) are not
counted.

The calling thread is always profiled.  On an aio workload the event-loop
thread is too: the profile function is installed on the aio host's
loop (``session._host_transport.loop``) through ``call_soon_threadsafe``
before the timed phase and removed after it, so the receive sides that
run there (every instance's handler, the server's dispatch) are counted
as well;
the two threads' shares are printed beside the total.  The count repeats
exactly on a workload whose actions run on the calling thread alone
(``fanout64_memory``); on a socket backend the loop's share also counts
its own wake-ups, which depend on scheduling.  A count compares two
versions of one program on one interpreter; it says nothing about time.

Standard library only.  Usage, from the repository root::

    python .github/scripts/calls.py                          # fanout64_memory
    python .github/scripts/calls.py --workload fanout64_memory --seed 990
    python .github/scripts/calls.py --workload copy_form_aio   # + the loop thread
    python .github/scripts/calls.py --top 20                 # also the busiest callees
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
import tempfile
import threading
from typing import Any, Callable, Counter, List, Optional

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
LEDGER = os.path.join(ROOT, "benchmarks", "ledger")


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
    # One tally per thread, keyed by code object: no count is shared
    # between the two threads that run profile functions.
    driver: Counter = collections.Counter()
    on_loop: Counter = collections.Counter()

    def profiler(tally: Counter) -> Callable[..., None]:
        def profile(frame, event, _arg) -> None:
            if event == "call":
                tally[frame.f_code] += 1

        return profile

    with tempfile.TemporaryDirectory() as workdir:
        workload = build(spec, seed, workdir, actions)
        try:
            workload.setup()
            for k in range(workload.warmup):
                workload.act(k)
                workload.settle()
            workload.quiesce()
            loop = None
            if spec.shape.get("backend") == "aio":
                loop = workload.session._host_transport.loop
            failed = 0
            if loop is not None:
                _run_on(loop, sys.setprofile, profiler(on_loop))
            sys.setprofile(profiler(driver))
            try:
                for k in range(workload.warmup, workload.warmup + workload.actions):
                    if workload.act(k) is None or not workload.settle():
                        failed += 1
            finally:
                sys.setprofile(None)
                if loop is not None:
                    _run_on(loop, sys.setprofile, None)
            problems = workload.check()
        finally:
            workload.close()
    timed = workload.actions
    calling, looping = sum(driver.values()), sum(on_loop.values())
    calls = calling + looping
    share = ""
    if loop is not None:
        share = (
            f"calling thread {calling / timed:.2f}, "
            f"loop thread {looping / timed:.2f}; "
        )
    print(
        f"{workload_name}: {calls / timed:.2f} Python calls per action "
        f"({share}{calls} over {timed} actions, seed {seed}, failed {failed}, "
        f"python {sys.version.split()[0]})"
    )
    callees: Counter = collections.Counter()
    for code, n in (driver + on_loop).items():
        where = os.path.relpath(code.co_filename, ROOT)
        callees[f"{where}:{code.co_name}"] += n
    for name, n in callees.most_common(top):
        print(f"  {n / timed:9.2f}  {name}")
    if failed or problems:
        print(f"output check failed: {failed} failed actions, {problems[:3]}")
        return 1
    return 0


def _run_on(loop: Any, function: Callable[..., Any], *args: Any) -> None:
    """Run *function* on *loop*'s thread and wait until it has run."""
    done = threading.Event()

    def call() -> None:
        try:
            function(*args)
        finally:
            done.set()

    loop.call_soon_threadsafe(call)
    if not done.wait(timeout=10):
        raise RuntimeError("the event loop did not run the call within 10 s")


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
