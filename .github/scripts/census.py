#!/usr/bin/env python3
"""Call census of ``src/``: which functions does anything run?

Runs tier-1 (``python -m pytest -q``), ``benchmarks/ledger/run.py
--self-test`` and every ``examples/*.py`` with a ``sitecustomize`` on
``PYTHONPATH`` that records each code object entered
(``sys.setprofile`` plus ``threading.setprofile``), so loop threads and
shard worker subprocesses are counted too.  Each process writes what it
saw to its own file every half second as well as at exit: workers end
in ``os._exit`` or a signal, where ``atexit`` never runs.  Then every
code object compiled from ``src/`` is looked up by (file, first line,
qualified name), and the functions nothing called are listed.

Standard library only.  Usage, from the repository root::

    python .github/scripts/census.py                 # run, then report
    python .github/scripts/census.py --dumps DIR     # keep the dumps in DIR
    python .github/scripts/census.py --dumps DIR --report-only
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import types
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(ROOT, "src")

Key = Tuple[str, int, str]

SITECUSTOMIZE = textwrap.dedent(
    """
    import atexit, json, os, sys, threading, time

    _src = os.environ["REPRO_CENSUS_SRC"]
    _out = os.environ["REPRO_CENSUS_DIR"]
    _seen = set()
    _add = _seen.add


    def _key(c):
        return c.co_filename, c.co_firstlineno, getattr(c, "co_qualname", c.co_name)


    def _profile(frame, event, arg):
        if event == "call":
            _add(frame.f_code)


    def _dump():
        rows = sorted({_key(c) for c in list(_seen) if c.co_filename.startswith(_src)})
        path = os.path.join(_out, "%d.json" % os.getpid())
        with open(path + ".tmp", "w") as fh:
            json.dump(rows, fh)
        os.replace(path + ".tmp", path)


    def _dump_while_alive():
        last = -1
        while True:
            time.sleep(0.5)
            if len(_seen) != last:
                last = len(_seen)
                _dump()


    def _start():
        threading.Thread(
            target=_dump_while_alive, name="census-dump", daemon=True
        ).start()


    sys.setprofile(_profile)
    threading.setprofile(_profile)
    atexit.register(_dump)
    os.register_at_fork(after_in_child=_start)
    _start()
    """
)


def run_everything(dumps: str) -> Dict[str, int]:
    """Run tier-1, the ledger self-test and the examples under the
    census, each one's output in ``<dumps>/<name>.log``; returns each
    command's exit status."""
    site = tempfile.mkdtemp(prefix="census-site-")
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([site, SRC])
    env["REPRO_CENSUS_SRC"] = SRC
    env["REPRO_CENSUS_DIR"] = dumps
    commands = {
        "tier-1": [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        "ledger-self-test": [sys.executable, "benchmarks/ledger/run.py", "--self-test"],
    }
    for script in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        commands[os.path.basename(script)] = [sys.executable, script]
    status = {}
    for name, command in commands.items():
        print(f"census: {name}", file=sys.stderr, flush=True)
        with open(os.path.join(dumps, f"{name}.log"), "w") as log:
            status[name] = subprocess.run(
                command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
            ).returncode
    return status


def called(dumps: str) -> Set[Key]:
    seen: Set[Key] = set()
    for path in glob.glob(os.path.join(dumps, "*.json")):
        with open(path) as fh:
            seen.update((f, int(line), name) for f, line, name in json.load(fh))
    return seen


def code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def last_line(code: types.CodeType) -> int:
    return max(
        (line for _, _, line in code.co_lines() if line is not None),
        default=code.co_firstlineno,
    )


def census(seen: Set[Key]) -> Tuple[int, int, List[Tuple[Key, int]]]:
    """(code objects, called, never-called named functions with sizes)."""
    total = hit = 0
    missed: List[Tuple[Key, int]] = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        for code in code_objects(module):
            if code.co_name == "<module>":
                continue
            total += 1
            name = getattr(code, "co_qualname", code.co_name)
            key = (path, code.co_firstlineno, name)
            if key in seen:
                hit += 1
            elif not code.co_name.startswith("<"):
                size = last_line(code) - code.co_firstlineno + 1
                missed.append((key, size))
    return total, hit, missed


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dumps", help="directory for the per-process dumps")
    parser.add_argument(
        "--report-only", action="store_true",
        help="read the dumps of an earlier run instead of running again",
    )
    args = parser.parse_args(argv)
    dumps = args.dumps or tempfile.mkdtemp(prefix="census-dumps-")
    os.makedirs(dumps, exist_ok=True)
    if not args.report_only:
        for name, code in run_everything(dumps).items():
            print(f"{name}: exit {code}")
    total, hit, missed = census(called(dumps))
    print(
        f"{total} code objects, {hit} called; {len(missed)} named functions "
        f"({sum(size for _, size in missed)} lines) never called"
    )
    for (path, line, name), size in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line}\t{name}\t{size}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
