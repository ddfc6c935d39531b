"""Import boundaries of ``repro.cluster``, checked on the AST.

The router is a sans-I/O state machine: it knows shards only through
``ShardLink`` and nothing about threads, processes or sockets.  The
supervisor knows processes and nothing about what a shard computes.
"""

import ast
import os

import repro.cluster


def imported_modules(module_file):
    """Every module a file names in an import statement, anywhere in it
    (function-local imports included)."""
    path = os.path.join(os.path.dirname(repro.cluster.__file__), module_file)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import hides its target"
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def reaches(imports, package):
    return sorted(
        name for name in imports
        if name == package or name.startswith(package + ".")
    )


def test_router_knows_no_threads_processes_or_sockets():
    imports = imported_modules("router.py")
    for banned in (
        "threading", "subprocess", "repro.net.aio",
        "repro.cluster.proc", "repro.cluster.supervisor",
    ):
        assert reaches(imports, banned) == []
    assert "repro.cluster.link" in imports


def test_supervisor_knows_nothing_about_coupling():
    imports = imported_modules("supervisor.py")
    for banned in ("repro.server", "repro.core", "repro.cluster.router"):
        assert reaches(imports, banned) == []


def test_link_contract_stands_alone():
    imports = imported_modules("link.py")
    for banned in (
        "threading", "subprocess", "repro.net.aio", "repro.server",
        "repro.core", "repro.cluster.router", "repro.cluster.proc",
        "repro.cluster.supervisor",
    ):
        assert reaches(imports, banned) == []
