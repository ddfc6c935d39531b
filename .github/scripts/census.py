#!/usr/bin/env python3
"""Line census of ``src/``: which lines, and so which functions, does
anything run?

Runs tier-1 (``python -m pytest -q``), ``benchmarks/ledger/run.py
--self-test`` and every ``examples/*.py`` with a ``sitecustomize`` on
``PYTHONPATH`` that line-traces every frame of ``src/``
(``sys.settrace`` plus ``threading.settrace``), so loop threads and
shard worker subprocesses are counted too.  Each process writes what it
saw to its own file every half second (never while ``tracemalloc``
traces, and ``tracemalloc.start`` waits for a dump in progress, so no
dump counts as a measured test's allocation), at exit and
in ``os._exit`` (where workers end, and ``atexit`` never runs); a
process killed by a signal keeps only its last periodic dump.  A dump holds the
``src/`` lines executed and the code objects entered, each by file,
first line and qualified name; the table of named functions nothing
called is derived from the second.

With pytest arguments after ``--`` only ``python -m pytest ARGS`` runs
(how one environment's test selection is measured on its own).

``--check LIST`` turns the report into a gate: it fails when a command
exited non-zero, when a named function nothing called is not in LIST,
and when a function LIST names was called or is gone.  LIST holds one
function a line, ``path<TAB>qualified name<TAB>reason``, keyed by path
and qualified name (not by line, so an edit above a function does not
move its entry); ``#`` starts a comment.
``--versus`` lists the lines the dumps executed that other dumps did
not.  The two sets may come from different trees (a parent commit's
checkout and a change's): each side's lines are carried over by a line
diff of the two files, and a line the other tree no longer has is
listed as gone.

Standard library only.  Usage, from the repository root::

    python .github/scripts/census.py                 # run, then report
    python .github/scripts/census.py --dumps DIR     # keep the dumps in DIR
    python .github/scripts/census.py --dumps DIR -- tests/integration
    python .github/scripts/census.py --report-only --dumps A --dumps B \\
        --versus C                                   # union of A, B minus C
    python .github/scripts/census.py --check .github/census-never-called.txt
"""

from __future__ import annotations

import argparse
import difflib
import glob
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import types
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(ROOT, "src")

Key = Tuple[str, int, str]  # (path under src/, first line, qualified name)
Lines = Dict[str, Set[int]]  # path under src/ -> executed line numbers

SITECUSTOMIZE = textwrap.dedent(
    """
    import atexit, json, os, sys, threading, time, tracemalloc

    _src = os.environ["REPRO_CENSUS_SRC"]
    _out = os.environ["REPRO_CENSUS_DIR"]
    _lines = set()
    _codes = set()
    _add_line = _lines.add


    def _line(frame, event, arg):
        if event == "line":
            _add_line((frame.f_code.co_filename, frame.f_lineno))
        return _line


    def _call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(_src):
            return None
        # Keyed by where the code is, not by the code object: code
        # equality ignores the file and the qualified name, so two
        # same-bodied functions at one line number would merge.
        _codes.add((code.co_filename, code.co_firstlineno, code.co_qualname))
        return _line


    def _rel(path):
        return os.path.relpath(path, _src)


    def _dump():
        # One writer at a time (the dump thread races the atexit dump),
        # so the file left behind is the last and fullest snapshot.
        with _writing:
            lines = {}
            for path, line in list(_lines):
                lines.setdefault(_rel(path), []).append(line)
            codes = sorted(
                (_rel(path), line, name) for path, line, name in list(_codes)
            )
            path = os.path.join(_out, "%d.json" % os.getpid())
            with open(path + ".tmp", "w") as fh:
                json.dump({"src": _src, "lines": lines, "codes": codes}, fh)
            os.replace(path + ".tmp", path)


    def _dump_while_alive():
        last = -1
        while True:
            time.sleep(0.5)
            # A dump allocates: inside a test's tracemalloc window it
            # would count as the test's own memory.  The check and the
            # dump hold the lock tracemalloc.start() waits for, so a
            # window never opens on a dump in progress either.  The exit
            # dumps still run.
            with _writing:
                if len(_lines) != last and not tracemalloc.is_tracing():
                    last = len(_lines)
                    _dump()


    _tracemalloc_start = tracemalloc.start


    def _start_tracemalloc(*args):
        with _writing:
            _tracemalloc_start(*args)


    def _start():
        global _writing
        _writing = threading.RLock()  # a forked child may inherit it held
        threading.Thread(
            target=_dump_while_alive, name="census-dump", daemon=True
        ).start()


    _exit = os._exit


    def _dump_then_exit(status):
        _dump()
        _exit(status)


    sys.settrace(_call)
    threading.settrace(_call)
    atexit.register(_dump)
    os._exit = _dump_then_exit
    tracemalloc.start = _start_tracemalloc
    os.register_at_fork(after_in_child=_start)
    _start()
    """
)


def run(dumps: str, pytest_args: List[str]) -> Dict[str, int]:
    """Run under the census, each command's output in
    ``<dumps>/<name>.log``: tier-1, the ledger self-test and the
    examples, or only ``pytest *pytest_args*`` when any are given.
    Returns each command's exit status."""
    site = tempfile.mkdtemp(prefix="census-site-")
    with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
        fh.write(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([site, SRC])
    env["REPRO_CENSUS_SRC"] = SRC + os.sep
    env["REPRO_CENSUS_DIR"] = dumps
    pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    if pytest_args:
        commands = {"pytest": pytest + pytest_args}
    else:
        commands = {
            "tier-1": pytest,
            "ledger-self-test": [
                sys.executable, "benchmarks/ledger/run.py", "--self-test"
            ],
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


def load(dirs: List[str]) -> Tuple[str, Lines, Set[Key]]:
    """The union of every dump in *dirs*: ``(src root, lines, codes)``.
    All dumps must come from one tree."""
    roots: Set[str] = set()
    lines: Lines = {}
    codes: Set[Key] = set()
    for directory in dirs:
        for path in glob.glob(os.path.join(directory, "*.json")):
            with open(path) as fh:
                dump = json.load(fh)
            roots.add(dump["src"])
            for rel, numbers in dump["lines"].items():
                lines.setdefault(rel, set()).update(numbers)
            codes.update((rel, int(line), name) for rel, line, name in dump["codes"])
    if len(roots) != 1:
        raise SystemExit(f"census: {dirs} hold dumps of {len(roots)} trees")
    return roots.pop(), lines, codes


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


def census(
    src: str, codes: Set[Key]
) -> Tuple[int, int, List[Tuple[Key, int]], Set[Tuple[str, str]]]:
    """(code objects, called, never-called named functions with sizes,
    every named function as ``(path under src/, qualified name)``)."""
    total = hit = 0
    missed: List[Tuple[Key, int]] = []
    named: Set[Tuple[str, str]] = set()
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, src)
        with open(path) as fh:
            module = compile(fh.read(), path, "exec")
        for code in code_objects(module):
            if code.co_name == "<module>":
                continue
            total += 1
            key = (rel, code.co_firstlineno, code.co_qualname)
            if key in codes:
                hit += 1
            elif not code.co_name.startswith("<"):
                size = last_line(code) - code.co_firstlineno + 1
                missed.append((key, size))
            if not code.co_name.startswith("<"):
                named.add((rel, code.co_qualname))
    return total, hit, missed, named


def read_list(path: str) -> Dict[Tuple[str, str], str]:
    """A ``--check`` list: ``(path under src/, qualified name) -> reason``."""
    listed: Dict[Tuple[str, str], str] = {}
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3 or not all(f.strip() for f in fields):
                raise SystemExit(f"census: {path}:{number}: want path, name, reason")
            rel, name, reason = fields
            listed[(rel.removeprefix("src/"), name)] = reason
    return listed


def check(
    listed: Dict[Tuple[str, str], str],
    missed: List[Tuple[Key, int]],
    named: Set[Tuple[str, str]],
    status: Dict[str, int],
) -> List[str]:
    """What fails the gate, one line each (empty: it passes)."""
    never = {(rel, name) for (rel, _, name), _ in missed}
    problems = [f"{name}: exit {code}" for name, code in status.items() if code]
    for rel, name in sorted(never - set(listed)):
        problems.append(f"never called and not listed\tsrc/{rel}\t{name}")
    for rel, name in sorted(set(listed) - never):
        state = "called" if (rel, name) in named else "gone"
        problems.append(f"listed but {state}\tsrc/{rel}\t{name}")
    return problems


def source(src: str, rel: str) -> List[str]:
    try:
        with open(os.path.join(src, rel)) as fh:
            return fh.read().splitlines()
    except FileNotFoundError:
        return []


def carry(lines: Set[int], old: List[str], new: List[str]) -> Set[int]:
    """*lines* of the file *old*, renumbered as the file *new*; a line
    *new* does not have is dropped."""
    if old == new:
        return set(lines)
    moved: Set[int] = set()
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    for a, b, size in matcher.get_matching_blocks():
        moved.update(line - a + b for line in lines if a < line <= a + size)
    return moved


def versus(
    src: str, lines: Lines, other_src: str, other: Lines
) -> Tuple[List[Tuple[str, int]], List[Tuple[str, int]]]:
    """Lines of *lines* that *other* did not execute, as
    ``(executed elsewhere, gone from the other tree)``."""
    missing: List[Tuple[str, int]] = []
    gone: List[Tuple[str, int]] = []
    for rel in sorted(lines):
        mine, theirs = source(src, rel), source(other_src, rel)
        kept = carry(set(range(1, len(theirs) + 1)), theirs, mine)
        ran = carry(other.get(rel, set()), theirs, mine)
        for line in sorted(lines[rel] - ran):
            (missing if line in kept else gone).append((rel, line))
    return missing, gone


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dumps", action="append", default=[],
        help="directory for the per-process dumps; repeat with "
             "--report-only to report the union of several runs",
    )
    parser.add_argument(
        "--report-only", action="store_true",
        help="read the dumps of earlier runs instead of running again",
    )
    parser.add_argument(
        "--versus", action="append", default=[],
        help="dumps of another run (repeatable): list the lines --dumps "
             "executed that these did not",
    )
    parser.add_argument(
        "--check", metavar="LIST",
        help="fail unless the never-called functions are exactly LIST's",
    )
    parser.add_argument("pytest_args", nargs="*", help="after --: pytest only")
    args = parser.parse_args(argv)
    listed = read_list(args.check) if args.check else None
    if not args.dumps:
        args.dumps = [tempfile.mkdtemp(prefix="census-dumps-")]
    status: Dict[str, int] = {}
    if not args.report_only:
        if len(args.dumps) != 1:
            parser.error("a run writes into one --dumps directory")
        (dumps,) = args.dumps
        os.makedirs(dumps, exist_ok=True)
        status = run(dumps, args.pytest_args)
        for name, code in status.items():
            print(f"{name}: exit {code}")
    src, lines, codes = load(args.dumps)
    total, hit, missed, named = census(src, codes)
    print(f"{sum(map(len, lines.values()))} src/ lines executed")
    print(
        f"{total} code objects, {hit} called; {len(missed)} named functions "
        f"({sum(size for _, size in missed)} lines) never called"
    )
    for (rel, line, name), size in missed:
        print(f"src/{rel}:{line}\t{name}\t{size}")
    if args.versus:
        other_src, other, _ = load(args.versus)
        missing, gone = versus(src, lines, other_src, other)
        print(f"{len(missing)} lines not executed by --versus, {len(gone)} gone:")
        for label, rows in (("missing", missing), ("gone", gone)):
            for rel, line in rows:
                text = source(src, rel)[line - 1].strip()
                print(f"{label}\tsrc/{rel}:{line}\t{text}")
    if listed is not None:
        problems = check(listed, missed, named, status)
        print(f"census check against {args.check}: {len(problems)} problems")
        for problem in problems:
            print(problem)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
