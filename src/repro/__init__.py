"""repro — reproduction of Zhao & Hoppe, ICDCS 1994.

*Supporting Flexible Communication in Heterogeneous Multi-User
Environments*: flexible coupling of arbitrary UI objects between
heterogeneous application instances, synchronized by UI state and by
multiple execution through a central server.

Quick start::

    from repro import Session
    from repro.toolkit import Shell, TextField

    session = Session()                        # backend="memory"|"tcp"|"aio"
    a = session.create_instance("app-a", user="alice")
    b = session.create_instance("app-b", user="bob")

    field_a = TextField("note", parent=a.add_root(Shell("ui")))
    field_b = TextField("note", parent=b.add_root(Shell("ui")))

    a.couple(field_a, b.gid("/ui/note"))      # dynamic coupling
    field_a.commit("hello from alice")         # multiple execution
    session.pump()
    assert field_b.value == "hello from alice"

Package layout mirrors the system inventory in DESIGN.md: ``toolkit``
(CENTER-like widget substrate), ``net`` (transports), ``server`` (the
central controller), ``core`` (the coupling runtime), ``baselines``
(multiplex and UI-replicated architectures), ``apps`` (classroom, TORI,
drawing), ``workloads`` (synthetic users).
"""

from repro.core.instance import ApplicationInstance
from repro.core.compat import CorrespondenceRegistry
from repro.core.state_sync import FLEXIBLE, MERGE, STRICT
from repro.errors import ReproError
from repro.server.server import CosoftServer
from repro.session import Session, SessionConfig

__version__ = "1.0.0"

__all__ = [
    "ApplicationInstance",
    "CorrespondenceRegistry",
    "CosoftServer",
    "FLEXIBLE",
    "MERGE",
    "ReproError",
    "STRICT",
    "Session",
    "SessionConfig",
    "__version__",
]
