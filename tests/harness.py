"""Conformance harness: one workload library over one deployment matrix.

§3.2's multiple execution means every coupled replica ends in the same
UI state, having executed the same events in the same order, whatever
the deployment.  This module states that once.

Workloads (each returns plain data; the suite that runs it, and on
which cells of :data:`DEPLOYMENTS`):

* :func:`group` — four writers on one couple group, plus two pairs.
  ``integration/test_aio_parity.py``: memory-0/2/4, aio-0/2/4.
* :func:`churn` — sparse coupling, a decouple, repeated CopyTo.
  ``integration/test_routing_parity.py``: memory-0/2/4, tcp-0/2,
  aio-0/4, aio-2-binary.
* :func:`strokes` — canvas strokes while two couple groups merge; the
  stroke list is the order DRAW events executed.
  ``cluster/test_parity.py``: memory-0/1/2/4/8, memory-2-persistent,
  aio-2-processes; ``integration/test_proc_chaos.py`` under faults.
* :func:`keystrokes` — three traced keystrokes; the span trees are part
  of the result.  ``integration/test_trace_parity.py``: memory, tcp and
  aio at 1, 2 and 4 shards, observed; ``integration/test_proc_obs.py``
  on shard processes, modulo the process-boundary hops.

:data:`REFERENCES` holds each result as a literal recorded once on the
memory backend: nothing is checked against a run of the code under
test.  :data:`DEPLOYMENTS` is the one list of ``Session(**shape)``
shapes, named ``<backend>-<shards>[-<variant>]``.

Invariants.  :func:`run` checks on every cell that the floor table is
empty at quiescence (``conftest.floor_free``) and that no handler wrote
into a delivered payload (``conftest.guarded_payloads``, memory
endpoints); :func:`conform` adds that the result equals the reference —
final UI state, per-replica event order and, on observed cells, the
canonical span trees.

Faults.  A fault is a ``Session`` knob laid over a cell
(``conform("group", "memory-0", duplicate_rate=0.2, seed=7)``) or a
``mid_workload(session)`` hook, which :func:`group` and :func:`strokes`
call halfway through (:func:`partition_then_heal`; the chaos suite's
``kill -9`` and reshard).  To add one, write the hook and pass it to
:func:`conform`, with ``expected`` only if the fault changes what the
replicas should see.
"""

import time

from repro.session import Session
from repro.toolkit.widgets import Canvas, Shell, TextField

from conftest import (
    floor_free,
    guarded_payloads,
    make_demo_tree,
    record_executions,
    settle,
)

FIELD = "/app/form/name"
ZOOM = "/app/board/zoom"
FLAG = "/app/form/flag"
ROOT = "/app"


def _shape(backend, shards, **variant):
    return {"backend": backend, "shards": shards, **variant}


DEPLOYMENTS = {
    **{f"memory-{n}": _shape("memory", n) for n in (0, 1, 2, 4, 8)},
    "tcp-0": _shape("tcp", 0),
    "tcp-2": _shape("tcp", 2),
    "aio-0": _shape("aio", 0),
    "aio-2": _shape("aio", 2),
    "aio-4": _shape("aio", 4),
    "aio-2-binary": _shape("aio", 2, codec="binary"),
    "memory-2-persistent": _shape("memory", 2, persistence=True),
    "aio-2-processes": _shape("aio", 2, processes=True),
    **{
        f"{backend}-{n}-observed": _shape(backend, n, observability=True)
        for backend in ("memory", "tcp", "aio")
        for n in (1, 2, 4)
    },
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def ui_snapshot(trees):
    """{instance: {pathname: coupling-relevant state}} for comparison."""
    return {
        instance_id: {
            widget.pathname: widget.relevant_state() for widget in tree.walk()
        }
        for instance_id, tree in trees.items()
    }


def field_event_order(executed):
    """The (user, value) sequence of FIELD events a replica executed,
    from its :func:`conftest.record_executions` list."""
    return [(user, params.get("value")) for user, _, params in executed]


def _demo_instances(session, n):
    """*n* registered instances ``i0..`` holding a demo tree each, and
    what each one's FIELD executes (:func:`conftest.record_executions`)."""
    instances, trees, executed = {}, {}, {}
    for i in range(n):
        instance_id = f"i{i}"
        instances[instance_id] = session.create_instance(instance_id, user=f"u{i}")
        trees[instance_id] = instances[instance_id].add_root(make_demo_tree())
        executed[instance_id] = record_executions(trees[instance_id].find(FIELD))
    assert settle(
        session, lambda: all(len(inst.roster) == n for inst in instances.values())
    )
    return instances, trees, executed


def _result(trees, executed):
    return ui_snapshot(trees), {i: field_event_order(executed[i]) for i in trees}


def group(session, mid_workload=None):
    """Four writers take turns on one FIELD group; a ZOOM pair and a FLAG
    pair change alongside.  ``mid_workload`` runs once the groups stand,
    before the first edit."""
    instances, trees, executed = _demo_instances(session, 4)
    for other in ("i1", "i2", "i3"):
        instances["i0"].couple(trees["i0"].find(FIELD), (other, FIELD))
    instances["i1"].couple(trees["i1"].find(ZOOM), ("i0", ZOOM))
    instances["i2"].couple(trees["i2"].find(FLAG), ("i3", FLAG))
    assert settle(
        session,
        lambda: all(instances[i].is_coupled(FIELD) for i in instances)
        and instances["i0"].is_coupled(ZOOM)
        and instances["i3"].is_coupled(FLAG),
    )
    if mid_workload is not None:
        mid_workload(session)

    # Each step settles before the next, so the global order is the same
    # on every backend.
    for writer, value in (
        ("i0", "alpha"),
        ("i1", "bravo"),
        ("i3", "charlie"),
        ("i2", "delta"),
    ):
        trees[writer].find(FIELD).commit(value)
        assert settle(
            session,
            lambda v=value: all(trees[i].find(FIELD).value == v for i in trees),
        )
    trees["i1"].find(ZOOM).set_value(3)
    assert settle(session, lambda: trees["i0"].find(ZOOM).value == 3)
    trees["i0"].find(ZOOM).set_value(7)
    assert settle(session, lambda: trees["i1"].find(ZOOM).value == 7)
    trees["i2"].find(FLAG).set_value(True)
    assert settle(session, lambda: trees["i3"].find(FLAG).value is True)
    return _result(trees, executed)


def partition_then_heal(session):
    """A ``mid_workload`` fault for :func:`group` (memory backend): two
    edits die against a partitioned server — floor denied, feedback
    rolled back at the source — and the network heals."""
    instances = session.instances
    session.network.partition("server")
    instances["i0"].find_widget(FIELD).commit("lost-edit")
    instances["i1"].find_widget(ZOOM).set_value(9)
    session.pump()
    session.network.heal("server")


def churn(session):
    """Sparse coupling, multi-writer edits, one member leaves the FIELD
    group, then two CopyTo transfers (full, then delta)."""
    instances, trees, executed = _demo_instances(session, 4)
    # FIELD couples i0-i1-i2 (i3 stays out), ZOOM couples only i2-i3.
    instances["i0"].couple(trees["i0"].find(FIELD), ("i1", FIELD))
    instances["i0"].couple(trees["i0"].find(FIELD), ("i2", FIELD))
    instances["i2"].couple(trees["i2"].find(ZOOM), ("i3", ZOOM))
    assert settle(
        session,
        lambda: all(instances[i].is_coupled(FIELD) for i in ("i0", "i1", "i2"))
        and instances["i3"].is_coupled(ZOOM),
    )
    for writer, value in (("i0", "alpha"), ("i2", "bravo"), ("i1", "charlie")):
        trees[writer].find(FIELD).commit(value)
        assert settle(
            session,
            lambda v=value: all(
                trees[i].find(FIELD).value == v for i in ("i0", "i1", "i2")
            ),
        )
    trees["i2"].find(ZOOM).set_value(5)
    assert settle(session, lambda: trees["i3"].find(ZOOM).value == 5)

    instances["i1"].decouple_object(trees["i1"].find(FIELD))
    assert settle(session, lambda: not instances["i1"].is_coupled(FIELD))
    trees["i0"].find(FIELD).commit("post-churn")
    assert settle(
        session,
        lambda: trees["i2"].find(FIELD).value == "post-churn"
        and trees["i1"].find(FIELD).value == "charlie",
    )

    trees["i0"].find(FLAG).set_value(True)
    instances["i0"].copy_to(ROOT, ("i3", ROOT))
    trees["i0"].find(ZOOM).set_value(9)
    instances["i0"].copy_to(ROOT, ("i3", ROOT))
    assert settle(
        session,
        lambda: trees["i3"].find(FLAG).get("set") is True
        and trees["i3"].find(ZOOM).value == 9,
    )
    return _result(trees, executed)


def board_tree():
    """The strokes workload's tree: ``/ui/board`` canvas, ``/ui/title``."""
    shell = Shell("ui")
    Canvas("board", parent=shell, width=20, height=10)
    TextField("title", parent=shell)
    return shell


def strokes(session, mid_workload=None):
    """Three users draw while a-b's couple groups grow to take in c.

    Coupling a-b can already move one side's object to the other's home
    shard; merging c in is a second migration candidate.
    ``mid_workload`` runs between the two stages.  The session is pumped
    between different users' actions: the floor protocol denies a lock
    while the previous event's acks are outstanding, and a denied fire()
    rolls back instead of retrying.
    """
    trees = {
        iid: session.create_instance(iid, user=user).add_root(board_tree())
        for iid, user in (("a", "amy"), ("b", "ben"), ("c", "cat"))
    }
    instances = session.instances
    board = lambda iid: trees[iid].find("/ui/board")
    title = lambda iid: trees[iid].find("/ui/title")

    instances["a"].couple(board("a"), ("b", "/ui/board"))
    instances["a"].couple(title("a"), ("b", "/ui/title"))
    session.pump()
    board("a").draw_stroke([(0, 0), (1, 1)], color="red", user="amy")
    session.pump()
    board("b").draw_stroke([(2, 2), (3, 3)], color="blue", user="ben")
    session.pump()
    if mid_workload is not None:
        mid_workload(session)

    instances["b"].couple(board("b"), ("c", "/ui/board"))
    instances["b"].couple(title("b"), ("c", "/ui/title"))
    session.pump()
    for i in range(4):
        board("a").draw_stroke([(i, 0), (i, 1)], color="red", user="amy")
        session.pump()
        board("c").draw_stroke([(0, i), (1, i)], color="green", user="cat")
        session.pump()
        title("b").commit(f"round-{i}")
        session.pump()
    return {
        iid: {"strokes": board(iid).strokes, "title": title(iid).value}
        for iid in trees
    }


def _settle_spans(session, timeout=30.0):
    """Wait until spans exist and none is open.  A shard worker's spans
    arrive through the export-time refresher, so each round refreshes."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        session.pump()
        session.obs.refresh()
        stats = session.obs.spans.stats()
        if stats["spans"] and stats["open"] == 0:
            return True
        if session.backend != "memory":
            time.sleep(0.01)
    stats = session.obs.spans.stats()
    return stats["spans"] and stats["open"] == 0


def keystrokes(session):
    """One coupled field, three keystrokes (one trace each); the result
    includes every trace's canonical span tree."""
    a = session.create_instance("a", user="alice")
    b = session.create_instance("b", user="bob")
    trees = {"a": a.add_root(make_demo_tree()), "b": b.add_root(make_demo_tree())}
    a.couple(trees["a"].find(FIELD), ("b", FIELD))
    session.pump()
    for n in range(3):
        trees["a"].find(FIELD).type_text(str(n))
        assert _settle_spans(session), "spans did not settle"
    recorder = session.obs.spans
    spans = [recorder.canonical_tree(trace_id) for trace_id in recorder.trace_ids()]
    return ui_snapshot(trees), spans


WORKLOADS = {
    "group": group,
    "churn": churn,
    "strokes": strokes,
    "keystrokes": keystrokes,
}


# ---------------------------------------------------------------------------
# References (recorded on Session(backend="memory"); literals, not runs)
# ---------------------------------------------------------------------------


def _demo_state(name, *, flag=False, zoom=0):
    return {
        "/app": {"title": "demo"},
        "/app/board": {"title": ""},
        "/app/board/canvas": {"strokes": []},
        "/app/board/zoom": {"label": "", "value": zoom},
        "/app/form": {"title": ""},
        "/app/form/flag": {"label": "Flag", "set": flag},
        "/app/form/mode": {"entries": ["eq", "like"], "label": "", "selection": "eq"},
        "/app/form/name": {"value": name},
        "/app/form/ok": {"label": "OK"},
    }


def _stroke(color, start, end):
    return {
        "color": color,
        "points": [[float(x), float(y)] for x, y in (start, end)],
        "width": 1,
    }


_GROUP_EDITS = [("", "alpha"), ("", "bravo"), ("", "charlie"), ("", "delta")]
_CHURN_EDITS = [("", "alpha"), ("", "bravo"), ("", "charlie"), ("", "post-churn")]

#: Stage 2 of :func:`strokes`: a and c alternate, after c joined.
_MERGED_STROKES = [
    _stroke("red", (0, 0), (0, 1)),
    _stroke("green", (0, 0), (1, 0)),
    _stroke("red", (1, 0), (1, 1)),
    _stroke("green", (0, 1), (1, 1)),
    _stroke("red", (2, 0), (2, 1)),
    _stroke("green", (0, 2), (1, 2)),
    _stroke("red", (3, 0), (3, 1)),
    _stroke("green", (0, 3), (1, 3)),
]
_PAIR_STROKES = [
    _stroke("red", (0, 0), (1, 1)),
    _stroke("blue", (2, 2), (3, 3)),
] + _MERGED_STROKES

def _span_tree(outline):
    """An indented outline of span names as :meth:`SpanRecorder.canonical_tree`
    spells it: ``(name, children)`` tuples, children sorted."""
    root = []
    stack = [(-1, root)]
    for line in outline.strip("\n").splitlines():
        depth = len(line) - len(line.lstrip())
        while stack[-1][0] >= depth:
            stack.pop()
        children = []
        stack[-1][1].append((line.strip(), children))
        stack.append((depth, children))

    def freeze(nodes):
        return tuple(sorted((name, freeze(kids)) for name, kids in nodes))

    return freeze(root)


#: One keystroke's causal path.  Every observed cell is a cluster, so the
#: router hop (``cluster.route``) is on it.
_KEYSTROKE_SPANS = _span_tree(
    """
client.emit
  client.lock_wait
    cluster.route
      server.lock_wait
        server.broadcast
          remote.apply
            cluster.route
              server.ack
        server.floor_held
"""
)

REFERENCES = {
    "group": (
        {
            "i0": _demo_state("delta", zoom=7),
            "i1": _demo_state("delta", zoom=7),
            "i2": _demo_state("delta", flag=True),
            "i3": _demo_state("delta", flag=True),
        },
        {i: _GROUP_EDITS for i in ("i0", "i1", "i2", "i3")},
    ),
    # Recorded when every COUPLE_UPDATE went to the whole population and
    # every CopyTo was a full snapshot: scoped routing and delta sync
    # must not change what anyone sees.
    "churn": (
        {
            "i0": _demo_state("post-churn", flag=True, zoom=9),
            "i1": _demo_state("charlie"),
            "i2": _demo_state("post-churn", zoom=5),
            "i3": _demo_state("post-churn", flag=True, zoom=9),
        },
        {"i0": _CHURN_EDITS, "i1": _CHURN_EDITS[:3], "i2": _CHURN_EDITS, "i3": []},
    ),
    "strokes": {
        "a": {"strokes": _PAIR_STROKES, "title": "round-3"},
        "b": {"strokes": _PAIR_STROKES, "title": "round-3"},
        # c joined after stage 1: coupling replicates future events, not
        # past state (§3.1 separates state sync from coupling).
        "c": {"strokes": _MERGED_STROKES, "title": "round-3"},
    },
    "keystrokes": (
        {"a": _demo_state("012"), "b": _demo_state("012")},
        [_KEYSTROKE_SPANS] * 3,
    ),
}


# ---------------------------------------------------------------------------
# The check
# ---------------------------------------------------------------------------


def _await_heartbeat(session, timeout=10.0):
    """Wait until every shard worker has answered a heartbeat sent after
    this call: a worker's floor table is seen only through them."""
    mark = time.monotonic()
    handles = session.cluster.shards.values()
    end = mark + timeout
    while time.monotonic() < end:
        if all(handle.last_pong > mark for handle in handles):
            return
        time.sleep(0.05)
    raise AssertionError("no fresh heartbeat from every shard worker")


def run(workload, cell, *, mid_workload=None, **faults):
    """Run *workload* on deployment *cell*, checking that the floor
    table empties and that no payload is written into.

    *faults* are ``Session`` knobs laid over the cell's shape (network
    duplication, a journal directory, another shard count);
    *mid_workload* is passed to the workload.  Returns the result and
    the closed session, for checks particular to one cell.
    """
    hooks = {"mid_workload": mid_workload} if mid_workload is not None else {}
    with guarded_payloads(), Session(**{**DEPLOYMENTS[cell], **faults}) as session:
        result = WORKLOADS[workload](session, **hooks)
        if session.config.processes:
            _await_heartbeat(session)
        assert settle(session, lambda: floor_free(session)), "a floor is still held"
    return result, session


def conform(workload, cell, *, expected=None, **options):
    """:func:`run`, then compare the result with the reference — or with
    *expected*, for a fault that changes what replicas should see.
    Returns the closed session."""
    result, session = run(workload, cell, **options)
    assert result == (REFERENCES[workload] if expected is None else expected)
    return session
