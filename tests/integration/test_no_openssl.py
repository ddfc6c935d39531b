"""A deployment never loads OpenSSL.

``import hashlib`` always imports ``_hashlib``, which maps OpenSSL's
libcrypto (3.5 MB of RSS in a bare interpreter).  The SHA-1
fingerprints and the ring's BLAKE2b come from the stdlib's built-in
``_sha1`` and ``_blake2``, so a session that couples, commits,
transfers state and undoes leaves neither ``_hashlib`` nor ``ssl`` in
``sys.modules``, on every backend.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

#: Run in a fresh interpreter (``sys.argv[1]`` is the backend): two
#: instances couple, commit, CopyTo, CopyFrom and undo, then the script
#: prints which OpenSSL modules were imported on the way.
_SESSION_SCRIPT = """
import sys
import time

from repro.session import Session
from repro.toolkit.widgets import Form, Shell, TextField

FIELD = "/app/form/name"


def tree():
    shell = Shell("app")
    form = Form("form", parent=shell)
    TextField("name", parent=form)
    TextField("note", parent=form)
    return shell


def settle(session, predicate):
    if session.backend == "memory":
        session.pump()
        return predicate()
    end = time.monotonic() + 10.0
    while time.monotonic() < end:
        if predicate() and not session.server.locks:
            return True
        time.sleep(0.01)
    return False


with Session(backend=sys.argv[1]) as session:
    a = session.create_instance("a", user="u1")
    b = session.create_instance("b", user="u2")
    ta, tb = a.add_root(tree()), b.add_root(tree())
    a.couple(ta.find(FIELD), ("b", FIELD))
    assert settle(session, lambda: b.is_coupled(FIELD))
    ta.find(FIELD).commit("hello")
    assert settle(session, lambda: tb.find(FIELD).value == "hello")
    ta.find("/app/form/note").set("value", "pushed")
    a.copy_to(ta.find("/app/form"), ("b", "/app/form"))
    assert settle(session, lambda: tb.find("/app/form/note").value == "pushed")
    tb.find("/app/form/note").set("value", "pulled")
    a.copy_from(ta.find("/app/form"), ("b", "/app/form"))
    assert ta.find("/app/form/note").value == "pulled"
    assert a.undo(ta.find("/app/form"))
    assert ta.find("/app/form/note").value == "pushed"
print(sorted({"_hashlib", "ssl", "_ssl"} & set(sys.modules)))
"""


@pytest.mark.parametrize("backend", ["memory", "tcp", "aio"])
def test_a_session_loads_no_openssl(backend):
    src = Path(__file__).parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", _SESSION_SCRIPT, backend],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
