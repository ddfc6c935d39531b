"""Async runtime vs sync TCP: E11 population delivery, lifecycle, E10 contention.

The asyncio server runtime (docs/RUNTIME.md) replaces the blocking
thread-per-connection TCP host with one event loop plus per-destination
outbound batching.  Three harnesses quantify what that buys on the
paper's population-scaling story (§2.2/§4: a classroom where "each
participant has to couple with the rest of the work group"):

* **Delivery replay** — the tentpole gate.  One E11 population
  lifecycle (join storm → selective couple storm → concurrent student
  edits) is run through the sans-I/O ``CosoftServer`` once to capture
  the exact outbound message schedule its broadcasts produce; that
  schedule is then replayed through each host transport to N connected
  receivers, several rounds back to back, with every receiver counting
  the length-prefixed frames it decodes.  This isolates the transport
  cost the runtime redesigns: the sync host pays one ``sendall`` per
  message, the runtime coalesces each destination's accumulation into
  batched writes.  Must be >= 2x sync TCP at 64 instances (median of
  paired, same-noise-window runs; this host's absolute speed swings
  ~2x between scheduling windows, so only paired ratios are meaningful).
* **End-to-end lifecycle** — the same population lifecycle driven over
  real sockets into a live ``CosoftServer``: 64 connections register
  concurrently, the teacher couples every student, students commit
  edits under the floor protocol.  Here inbound decoding and handler
  work (shared by both backends) dilute the transport gap; the runtime
  must still win.
* **E10 contention** — one global couple group, all users racing for a
  single floor.  Throughput is bounded by the round-trip-serialized
  floor protocol, not the transport; the runtime must preserve the
  safety shape (exactly-one-winner, convergence, zero lock leakage) at
  sync-comparable speed — the "batching adds no latency" claim.
"""

import gc
import selectors
import socket
import struct
import threading
import time


from _common import emit_table
from repro.net import kinds
from repro.net.aio import AioHostTransport
from repro.net.codec import encode
from repro.net.message import Message
from repro.net.tcp import TcpHostTransport
from repro.server.server import CosoftServer
from repro.session import Session
from repro.toolkit.events import Event, VALUE_CHANGED
from repro.toolkit.widgets import Shell, TextField

POPULATIONS = (16, 32, 64)
EVENTS_PER_STUDENT = 5
#: Schedule replays per measured delivery run (amortizes setup noise).
DELIVERY_ROUNDS = 10
#: Paired (sync, aio) delivery runs at the gated population; the
#: asserted speedup is the median of the paired ratios.
DELIVERY_PAIRS = 5
CONTENTION_USERS = 8
CONTENTION_ROUNDS = 6

#: The hard gate this benchmark exists to enforce (ISSUE: >= 2x at 64).
REQUIRED_SPEEDUP_AT_64 = 2.0


def wait_until(predicate, timeout=120.0, interval=0.002):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# The E11 population lifecycle, as protocol messages
# ---------------------------------------------------------------------------


def lifecycle_inbound(n_instances, events=EVENTS_PER_STUDENT):
    """The client->server message sequence of one population lifecycle.

    Phase 1: everyone joins (the server answers each REGISTER with an
    ack and broadcasts the roster to everyone already present).
    Phase 2: the teacher couples selectively with every student (each
    COUPLE sends a COUPLE_UPDATE to the new group's two instances).
    Phase 3: every student commits *events* edits under the floor
    protocol (lock request -> grant, event -> broadcast to the group).
    """
    n_students = n_instances - 1
    regs = [
        Message(
            kind=kinds.REGISTER,
            sender="teacher",
            payload={"user": "teacher", "app_type": "bench"},
        )
    ]
    for k in range(n_students):
        regs.append(
            Message(
                kind=kinds.REGISTER,
                sender=f"i{k}",
                payload={"user": f"u{k}", "app_type": "bench"},
            )
        )
    couples = [
        Message(
            kind=kinds.COUPLE,
            sender="teacher",
            payload={
                "source": ["teacher", f"/ui/s{k}"],
                "target": [f"i{k}", "/ui/field"],
            },
        )
        for k in range(n_students)
    ]
    edits = []
    for k in range(n_students):
        per_student = []
        for round_no in range(events):
            token = round_no + 1
            per_student.append(
                Message(
                    kind=kinds.LOCK_REQUEST,
                    sender=f"i{k}",
                    payload={"source": [f"i{k}", "/ui/field"], "token": token},
                )
            )
            event = Event(
                type=VALUE_CHANGED,
                source_path="/ui/field",
                params={"value": f"v{round_no}"},
                user=f"u{k}",
                instance_id=f"i{k}",
            )
            per_student.append(
                Message(
                    kind=kinds.EVENT,
                    sender=f"i{k}",
                    payload={
                        "event": event.to_wire(),
                        "token": token,
                        "release": True,
                    },
                )
            )
        edits.append(per_student)
    return regs, couples, edits


def capture_outbound(regs, couples, edits):
    """Run the lifecycle through a sans-I/O server; return its outbound.

    The captured messages are the exact per-receiver broadcast schedule
    (roster updates, couple updates, lock replies, event broadcasts) the
    live server would emit — the delivery workload of the population.
    """
    out = []

    class _Capture:
        def send(self, message):
            out.append(message)

    server = CosoftServer(ack_release=False)
    server.bind(_Capture())
    for message in regs:
        server.handle_message(message)
    for message in couples:
        server.handle_message(message)
    for per_student in edits:
        for message in per_student:
            server.handle_message(message)
    return out


# ---------------------------------------------------------------------------
# Receiver pool: N sockets, one selector thread counting decoded frames
# ---------------------------------------------------------------------------


class ReceiverPool:
    """N client connections draining a host transport, counting frames.

    Each receiver associates itself by sending one REGISTER (hosts map a
    connection to an instance id on its first message), then counts the
    length-prefixed frames it receives — delivery is verified at the
    receiving end, not trusted from sender-side counters.
    """

    def __init__(self, host, port, ids):
        self.counts = {i: 0 for i in ids}
        self._residue = {i: b"" for i in ids}
        self._stop = threading.Event()
        self._selector = selectors.DefaultSelector()
        self._socks = {}
        for instance_id in ids:
            sock = socket.create_connection((host, port))
            sock.sendall(
                encode(
                    Message(kind=kinds.REGISTER, sender=instance_id, payload={})
                )
            )
            sock.setblocking(False)
            self._selector.register(
                sock, selectors.EVENT_READ, data=instance_id
            )
            self._socks[instance_id] = sock
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def total(self):
        return sum(self.counts.values())

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2.0)
        for sock in self._socks.values():
            sock.close()

    def _drain(self):
        while not self._stop.is_set():
            for key, _ in self._selector.select(timeout=0.05):
                instance_id = key.data
                try:
                    while True:
                        data = key.fileobj.recv(1 << 16)
                        if not data:
                            raise OSError("peer closed")
                        buffer = self._residue[instance_id] + data
                        pos = 0
                        while len(buffer) - pos >= 4:
                            (length,) = struct.unpack_from(">I", buffer, pos)
                            if len(buffer) - pos - 4 < length:
                                break
                            pos += 4 + length
                            self.counts[instance_id] += 1
                        self._residue[instance_id] = buffer[pos:]
                except BlockingIOError:
                    pass
                except OSError:
                    try:
                        self._selector.unregister(key.fileobj)
                    except (KeyError, ValueError):
                        pass


# ---------------------------------------------------------------------------
# Delivery replay: the transport-level gate
# ---------------------------------------------------------------------------


def run_delivery(backend, schedule, ids, rounds=DELIVERY_ROUNDS):
    """Replay *schedule* *rounds* times through one host transport.

    The replay is driven from the endpoint handler — exactly where the
    live server's broadcasts originate — so the aio transport's sends
    run on its loop and batch, while the sync host's sends pay their
    per-message ``sendall``, each from its natural dispatch context.
    """
    expected = len(schedule) * rounds

    def handler(message):
        if message.kind == kinds.COMMAND:  # the replay trigger
            for _ in range(rounds):
                for outbound in schedule:
                    transport.send(outbound)

    if backend == "tcp":
        transport = TcpHostTransport(handler)
    else:
        # Queue bound sized to the workload: the replay enqueues the full
        # schedule in one burst, which is the shape a join/couple storm
        # produces; drops would void the delivery verification below.
        transport = AioHostTransport(handler, max_queue=len(schedule) * rounds)
    host, port = transport.address
    pool = ReceiverPool(host, port, ids)
    try:
        assert wait_until(lambda: len(transport.connections()) >= len(ids))
        driver = socket.create_connection((host, port))
        gc.collect()  # same collector phase for both hosts (see run_lifecycle)
        started = time.perf_counter()
        driver.sendall(
            encode(Message(kind=kinds.COMMAND, sender="driver", payload={}))
        )
        delivered = wait_until(lambda: pool.total() >= expected, timeout=180)
        elapsed = time.perf_counter() - started
        driver.close()
        assert delivered, f"delivered {pool.total()}/{expected}"
        snapshot = transport.stats.snapshot()
        batches = snapshot.get("batches", 0)
        batched = snapshot.get("batched_messages", 0)
        return {
            "messages_per_s": expected / elapsed,
            "mean_batch": (batched / batches) if batches else 1.0,
        }
    finally:
        pool.close()
        transport.close()


# ---------------------------------------------------------------------------
# End-to-end lifecycle: live server, real protocol traffic
# ---------------------------------------------------------------------------


def run_lifecycle(backend, n_instances, events=EVENTS_PER_STUDENT):
    """Drive one full population lifecycle into a live server.

    Joins land concurrently on N connections, then the teacher's couple
    storm, then every student's edit stream — phase-gated on the
    server's processed counters so the broadcast fan-out (and therefore
    the expected outbound total, computed by the sans-I/O capture) is
    deterministic.  Completion is the server's outbound counter reaching
    that total.
    """
    regs, couples, edits = lifecycle_inbound(n_instances, events)
    expected = len(capture_outbound(regs, couples, edits))
    n_students = n_instances - 1
    kwargs = dict(backend=backend, ack_release=False)
    if backend == "aio":
        kwargs.update(max_queue=max(4096, expected))
    with Session(**kwargs) as session:
        stats = session._stats
        server = session.server
        ids = ["teacher"] + [f"i{k}" for k in range(n_students)]
        socks = {}
        frames = {m.sender: encode(m) for m in regs}
        couple_blob = b"".join(encode(m) for m in couples)
        edit_blobs = [b"".join(encode(m) for m in per) for per in edits]
        stop = threading.Event()
        selector = selectors.DefaultSelector()
        for instance_id in ids:
            sock = socket.create_connection((session.host, session.port))
            sock.setblocking(False)
            selector.register(sock, selectors.EVENT_READ)
            socks[instance_id] = sock

        def drain():
            while not stop.is_set():
                for key, _ in selector.select(timeout=0.05):
                    try:
                        while key.fileobj.recv(1 << 16):
                            pass
                    except BlockingIOError:
                        pass
                    except OSError:
                        try:
                            selector.unregister(key.fileobj)
                        except (KeyError, ValueError):
                            pass

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
        base = stats.messages
        # Start every measured run from the same collector phase: one
        # full (gen-2) collection costs 20-75 ms under pytest's heap, as
        # long as the whole 64-instance lifecycle, and where it falls
        # depends on the allocations of the runs before it, not on the
        # host under test.
        gc.collect()
        started = time.perf_counter()
        # Join storm: every REGISTER in flight at once.
        for instance_id, sock in socks.items():
            sock.sendall(frames[instance_id])
        assert wait_until(
            lambda: server.processed[kinds.REGISTER] >= n_instances
        )
        # Selective couple storm from the teacher.
        socks["teacher"].sendall(couple_blob)
        assert wait_until(lambda: server.processed[kinds.COUPLE] >= n_students)
        # Concurrent student edits under the floor protocol.
        for k, blob in enumerate(edit_blobs):
            socks[f"i{k}"].sendall(blob)
        delivered = wait_until(
            lambda: stats.messages - base >= expected, timeout=180
        )
        elapsed = time.perf_counter() - started
        stop.set()
        drainer.join(timeout=2.0)
        for sock in socks.values():
            sock.close()
        assert delivered, f"sent {stats.messages - base}/{expected}"
        snapshot = session.traffic()
        batches = snapshot.get("batches", 0)
        batched = snapshot.get("batched_messages", 0)
        return {
            "messages_per_s": expected / elapsed,
            "mean_batch": (batched / batches) if batches else 1.0,
            "dropped": snapshot["dropped"],
        }


class TestPopulationScaling:
    def test_delivery_beats_sync_tcp(self, benchmark):
        """The tentpole gate: >= 2x delivery throughput at 64 instances."""

        def sweep():
            rows = []
            gate_ratios = []
            for n in POPULATIONS:
                regs, couples, edits = lifecycle_inbound(n)
                schedule = capture_outbound(regs, couples, edits)
                # Pre-serialize once so every measured run — first
                # included — replays cached frames: the comparison is
                # purely transport cost, with codec work out of the loop.
                for message in schedule:
                    encode(message)
                ids = ["teacher"] + [f"i{k}" for k in range(n - 1)]
                pairs = DELIVERY_PAIRS if n == 64 else 1
                sync = aio = None
                ratios = []
                for _ in range(pairs):
                    sync = run_delivery("tcp", schedule, ids)
                    aio = run_delivery("aio", schedule, ids)
                    ratios.append(
                        aio["messages_per_s"] / sync["messages_per_s"]
                    )
                ratios.sort()
                median = ratios[len(ratios) // 2]
                if n == 64:
                    gate_ratios = ratios
                rows.append(
                    [
                        n,
                        len(schedule),
                        round(sync["messages_per_s"], 0),
                        round(aio["messages_per_s"], 0),
                        round(median, 2),
                        round(aio["mean_batch"], 1),
                    ]
                )
            return rows, gate_ratios

        rows, gate_ratios = benchmark.pedantic(sweep, rounds=1, iterations=1)
        emit_table(
            "async_runtime_population",
            "E11/async: population-lifecycle delivery — sync TCP vs aio "
            f"(x{DELIVERY_ROUNDS} rounds, median of paired runs)",
            [
                "instances",
                "msgs/lifecycle",
                "sync msg/s",
                "aio msg/s",
                "speedup",
                "aio msgs/batch",
            ],
            rows,
        )
        by_n = {row[0]: row for row in rows}
        # The tentpole gate: >= 2x delivery throughput at 64 instances,
        # median over paired same-window runs.
        assert by_n[64][4] >= REQUIRED_SPEEDUP_AT_64, gate_ratios
        # Batching engages on the population fan-out.
        assert by_n[64][5] > 1.0

    def test_lifecycle_end_to_end(self, benchmark):
        """Live-server lifecycle: the runtime wins with handlers included."""

        def both():
            rows = []
            for n in POPULATIONS:
                sync = run_lifecycle("tcp", n)
                aio = run_lifecycle("aio", n)
                rows.append(
                    [
                        n,
                        round(sync["messages_per_s"], 0),
                        round(aio["messages_per_s"], 0),
                        round(
                            aio["messages_per_s"] / sync["messages_per_s"], 2
                        ),
                        round(aio["mean_batch"], 1),
                    ]
                )
            return rows

        rows = benchmark.pedantic(both, rounds=1, iterations=1)
        emit_table(
            "async_runtime_lifecycle",
            "E11/async: live-server population lifecycle — sync TCP vs aio",
            ["instances", "sync msg/s", "aio msg/s", "speedup", "aio msgs/batch"],
            rows,
        )
        by_n = {row[0]: row for row in rows}
        # End to end, shared inbound/handler cost dilutes the transport
        # gap; the runtime must still not lose (noise guard, not a gate).
        assert by_n[64][3] >= 1.0
        assert by_n[64][4] > 1.0


# ---------------------------------------------------------------------------
# E10 contention: one global group, racing commits
# ---------------------------------------------------------------------------


def run_contention(backend, n_users=CONTENTION_USERS, rounds=CONTENTION_ROUNDS):
    """All users race for one floor; safety shape must survive sockets."""
    with Session(backend=backend) as session:
        trees = []
        instances = []
        for i in range(n_users):
            instance = session.create_instance(f"i{i}", user=f"u{i}")
            tree = Shell("ui")
            TextField("field", parent=tree)
            instance.add_root(tree)
            instances.append(instance)
            trees.append(tree)
        assert wait_until(
            lambda: all(len(inst.roster) == n_users for inst in instances)
        )
        for i in range(1, n_users):
            instances[0].couple(trees[0].find("/ui/field"), (f"i{i}", "/ui/field"))
        assert wait_until(
            lambda: all(inst.is_coupled("/ui/field") for inst in instances)
        )

        executed = [0] * n_users
        denied = [0] * n_users
        barrier = threading.Barrier(n_users)

        def contender(index):
            field = trees[index].find("/ui/field")
            for round_no in range(rounds):
                barrier.wait()
                field.commit(f"u{index}-r{round_no}")
                if instances[index].last_execution.lock_denied:
                    denied[index] += 1
                else:
                    executed[index] += 1

        threads = [
            threading.Thread(target=contender, args=(i,))
            for i in range(n_users)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        # Settle, then check convergence and lock hygiene.
        def converged():
            values = {tree.find("/ui/field").value for tree in trees}
            return len(values) == 1

        assert wait_until(converged)
        # Late EVENT_ACKs may still be in flight after the last commit
        # returns; floors release only when every receiver has acked, so
        # settle the deployment before auditing the lock table.
        session.pump()

        def no_locks_left():
            if session.cluster is None:
                return len(session.server.locks) == 0
            return all(
                len(shard.locks) == 0
                for shard in session.cluster.shards.values()
            )

        wait_until(no_locks_left, timeout=10.0)
        if session.cluster is None:
            locks_left = len(session.server.locks)
        else:
            locks_left = sum(
                len(shard.locks) for shard in session.cluster.shards.values()
            )
        return {
            "attempts_per_s": (n_users * rounds) / elapsed,
            "executed": sum(executed),
            "denied": sum(denied),
            "locks_left": locks_left,
        }


class TestContentionParity:
    def test_safety_shape_and_speed(self, benchmark):
        def both():
            return run_contention("tcp"), run_contention("aio")

        sync, aio = benchmark.pedantic(both, rounds=1, iterations=1)
        emit_table(
            "async_runtime_contention",
            "E10/async: global-group contention — sync TCP vs aio",
            ["backend", "attempts/s", "executed", "denied", "locks leaked"],
            [
                ["tcp", round(sync["attempts_per_s"], 1), sync["executed"],
                 sync["denied"], sync["locks_left"]],
                ["aio", round(aio["attempts_per_s"], 1), aio["executed"],
                 aio["denied"], aio["locks_left"]],
            ],
        )
        for result in (sync, aio):
            # Safety: every round admitted at least one winner, nothing
            # wedged, and no locks leaked.
            assert result["executed"] >= CONTENTION_ROUNDS
            assert result["locks_left"] == 0
            assert (
                result["executed"] + result["denied"]
                == CONTENTION_USERS * CONTENTION_ROUNDS
            )
        # "Batching adds no latency": the round-trip-bound floor protocol
        # must not run slower under the runtime (generous 2x guard: this
        # host's absolute speed swings ~2x between scheduling windows).
        assert aio["attempts_per_s"] >= sync["attempts_per_s"] / 2.0
