"""Micro-benchmarks of the hot-path components.

Unlike the experiment benchmarks (which reproduce paper claims on
simulated time), these measure real wall-clock throughput of the pieces
every coupled event touches: codec, event dispatch, couple-table closure,
state payload build/apply.  They exist to catch performance regressions
in the substrate itself.
"""

import pytest

from repro.core.compat import DEFAULT_MAPPING_CACHE, spec_fingerprint
from repro.core.state_sync import apply_state_payload, build_state_payload
from repro.net import kinds
from repro.net.codec import decode, encode
from repro.net.message import Message
from repro.server.couples import CoupleLink, CoupleTable, global_id
from repro.session import Session
from repro.toolkit.builder import build
from repro.toolkit.events import VALUE_CHANGED, Event
from repro.toolkit.widgets import Shell, TextField
from repro.workloads import standard_form_spec


@pytest.fixture
def event_message():
    return Message(
        kind=kinds.EVENT,
        sender="instance-1",
        payload={
            "event": Event(
                type=VALUE_CHANGED,
                source_path="/app/form/text",
                params={"value": "the quick brown fox"},
                user="alice",
                instance_id="instance-1",
            ).to_wire(),
            "token": 42,
            "release": True,
        },
    )


class TestCodecThroughput:
    def test_encode(self, benchmark, event_message):
        frame = benchmark(encode, event_message)
        assert len(frame) > 0

    def test_decode(self, benchmark, event_message):
        frame = encode(event_message)
        message = benchmark(decode, frame)
        assert message == event_message

    def test_roundtrip(self, benchmark, event_message):
        def roundtrip():
            return decode(encode(event_message))

        assert benchmark(roundtrip) == event_message


class TestEventDispatch:
    def test_fire_uncoupled_widget(self, benchmark):
        root = build(standard_form_spec())
        field = root.find("/app/form/text")
        counter = [0]
        field.add_callback(VALUE_CHANGED, lambda w, e: counter.__setitem__(
            0, counter[0] + 1))

        def fire():
            field.commit("x")

        benchmark(fire)
        assert counter[0] > 0

    def test_feedback_apply_and_rollback(self, benchmark):
        field = TextField("t")
        event = Event(
            type=VALUE_CHANGED, source_path="/t", params={"value": "abc"}
        )

        def cycle():
            undo = field.apply_feedback(event)
            undo.rollback()

        benchmark(cycle)


class TestCoupleClosure:
    def _big_table(self, groups=20, size=10):
        table = CoupleTable()
        for g in range(groups):
            members = [
                global_id(f"inst-{g}-{i}", "/app/x") for i in range(size)
            ]
            for member in members[1:]:
                table.add_link(CoupleLink(source=members[0], target=member))
        return table, global_id("inst-0-0", "/app/x")

    def test_group_of_cold(self, benchmark):
        table, probe = self._big_table()

        def closure():
            table._group_cache.clear()  # force recomputation
            return table.group_of(probe)

        group = benchmark(closure)
        assert len(group) == 10

    def test_group_of_cached(self, benchmark):
        table, probe = self._big_table()
        table.group_of(probe)  # warm the cache
        group = benchmark(table.group_of, probe)
        assert len(group) == 10


class TestCompatMappingCache:
    """Structural-mapping resolution with the fingerprint cache cold vs
    warm.  Every STRICT transfer between structurally distinct replicas
    pays this cost, so the warm path must be markedly cheaper."""

    def _transfer(self):
        source = build(standard_form_spec())
        source.find("/app/form/text").commit("content")
        payload = build_state_payload(source)
        target = build(standard_form_spec())
        return payload, target

    def test_fingerprint(self, benchmark):
        source = build(standard_form_spec())
        payload = build_state_payload(source)
        digest = benchmark(spec_fingerprint, payload["structure"])
        assert len(digest) == 40

    def test_apply_mapping_cold(self, benchmark):
        payload, target = self._transfer()

        def cold():
            DEFAULT_MAPPING_CACHE.clear()  # force recomputation
            return apply_state_payload(target, payload)

        report = benchmark(cold)
        assert report.applied_paths

    def test_apply_mapping_warm(self, benchmark):
        payload, target = self._transfer()
        DEFAULT_MAPPING_CACHE.clear()
        apply_state_payload(target, payload)  # warm the cache

        def warm():
            return apply_state_payload(target, payload)

        report = benchmark(warm)
        assert report.applied_paths
        assert DEFAULT_MAPPING_CACHE.hits > 0


class TestObservabilityOverhead:
    """Gate: enabling metrics must not regress the message economy.

    Replays the E11 selective-pairs workload (bench_e11_population.py)
    with observability off vs on and asserts msgs/op stays within 5%.
    The registry is pull-based (collectors polled at snapshot time), so
    the instrumented run should send the *same* messages — the trace
    context rides existing frames, it never adds round trips.
    """

    USERS = 8
    EVENTS_PER_USER = 5

    def _replay(self, observability):
        from repro.core.groups import CouplingGroup

        session = Session(observability=observability)
        trees = []
        for i in range(self.USERS):
            inst = session.create_instance(f"i{i}", user=f"u{i}")
            root = Shell("ui")
            TextField("field", parent=root)
            inst.add_root(root)
            trees.append(root)
        coordinator = session.create_instance("coord", user="mod")
        for i in range(0, self.USERS, 2):
            pair = CouplingGroup(coordinator, f"pair-{i}", ["/ui/field"])
            pair.add_member(f"i{i}")
            pair.add_member(f"i{i + 1}")
        session.pump()
        session.network.stats.reset()
        for round_no in range(self.EVENTS_PER_USER):
            for i in range(self.USERS):
                trees[i].find("/ui/field").commit(f"u{i}-r{round_no}")
                session.pump()
        stats = session.network.stats.snapshot()
        session.close()
        events = self.USERS * self.EVENTS_PER_USER
        return stats["messages"] / events

    def test_metrics_overhead_under_five_percent(self, benchmark):
        def compare():
            return self._replay(False), self._replay(True)

        baseline, instrumented = benchmark.pedantic(
            compare, rounds=1, iterations=1
        )
        assert instrumented <= baseline * 1.05, (
            f"observability regressed msgs/op: "
            f"{baseline:.2f} -> {instrumented:.2f}"
        )


class TestObservabilityOverheadProc:
    """Gate: the cluster observability plane stays off the hot path.

    Same economy argument as :class:`TestObservabilityOverhead`, on the
    multi-process path: with ``processes=True`` the supervisor scrapes
    workers over the admin links (piggybacked on heartbeats and at
    export time), so client-visible traffic per operation must stay
    within 5% of the uninstrumented run.
    """

    USERS = 4
    EVENTS_PER_USER = 3

    def _replay(self, observability, directory):
        session = Session(
            backend="aio",
            shards=2,
            processes=True,
            persistence=directory,
            observability=observability,
        )
        try:
            instances, trees = [], []
            for i in range(self.USERS):
                inst = session.create_instance(f"i{i}", user=f"u{i}")
                root = Shell("ui")
                TextField("field", parent=root)
                inst.add_root(root)
                instances.append(inst)
                trees.append(root)
            for i in range(0, self.USERS, 2):
                instances[i].couple(
                    trees[i].find("/ui/field"), (f"i{i + 1}", "/ui/field")
                )
            session.pump()
            before = session.traffic()["messages"]
            for round_no in range(self.EVENTS_PER_USER):
                for i in range(self.USERS):
                    trees[i].find("/ui/field").commit(f"u{i}-r{round_no}")
                    session.pump()
            messages = session.traffic()["messages"] - before
        finally:
            session.close()
        return messages / (self.USERS * self.EVENTS_PER_USER)

    def test_cluster_overhead_under_five_percent(self, benchmark, tmp_path):
        def compare():
            return (
                self._replay(False, str(tmp_path / "off")),
                self._replay(True, str(tmp_path / "on")),
            )

        baseline, instrumented = benchmark.pedantic(
            compare, rounds=1, iterations=1
        )
        assert instrumented <= baseline * 1.05, (
            f"cluster observability regressed msgs/op: "
            f"{baseline:.2f} -> {instrumented:.2f}"
        )


class TestPersistenceOverhead:
    """Gate: journaling must never add wire traffic.

    Replays the same selective-pairs workload with the op log off vs on
    (memory-backed journal — the fsync cost is the disk's, not the
    protocol's).  The journal hangs off ``handle_message`` *after* the
    handler ran; it appends locally and sends nothing, so msgs/op with
    persistence enabled must equal the baseline exactly, and the
    enabled run must stay within 5% even counting the local appends.
    """

    USERS = 8
    EVENTS_PER_USER = 5

    def _replay(self, persistence):
        from repro.core.groups import CouplingGroup
        from repro.persist import PersistenceConfig

        config = (
            PersistenceConfig(directory=None) if persistence else None
        )
        session = Session(persistence=config)
        trees = []
        for i in range(self.USERS):
            inst = session.create_instance(f"i{i}", user=f"u{i}")
            root = Shell("ui")
            TextField("field", parent=root)
            inst.add_root(root)
            trees.append(root)
        coordinator = session.create_instance("coord", user="mod")
        for i in range(0, self.USERS, 2):
            pair = CouplingGroup(coordinator, f"pair-{i}", ["/ui/field"])
            pair.add_member(f"i{i}")
            pair.add_member(f"i{i + 1}")
        session.pump()
        session.network.stats.reset()
        for round_no in range(self.EVENTS_PER_USER):
            for i in range(self.USERS):
                trees[i].find("/ui/field").commit(f"u{i}-r{round_no}")
                session.pump()
        stats = session.network.stats.snapshot()
        journaled = session.persistence
        appends = journaled.appends if journaled is not None else 0
        session.close()
        events = self.USERS * self.EVENTS_PER_USER
        return stats["messages"] / events, appends

    def test_journal_adds_no_wire_traffic(self, benchmark):
        def compare():
            return self._replay(False), self._replay(True)

        (baseline, _), (journaled, appends) = benchmark.pedantic(
            compare, rounds=1, iterations=1
        )
        assert journaled == baseline, (
            f"persistence changed the wire: "
            f"{baseline:.2f} -> {journaled:.2f} msgs/op"
        )
        assert appends > 0, "journal recorded nothing"
        assert journaled <= baseline * 1.05


class TestStateSyncThroughput:
    def test_build_payload(self, benchmark):
        root = build(standard_form_spec())
        payload = benchmark(build_state_payload, root)
        assert "state" in payload

    def test_apply_payload_strict(self, benchmark):
        source = build(standard_form_spec())
        source.find("/app/form/text").commit("content")
        payload = build_state_payload(source)
        target = build(standard_form_spec())

        def apply():
            return apply_state_payload(target, payload)

        report = benchmark(apply)
        assert report.applied_paths


def e11_message_mix(receivers=8):
    """The E11 population-workload wire mix: one coupled edit's full
    message complement (lock cycle, event, per-receiver broadcast and
    acks) plus the session-lifecycle kinds that ride along."""
    from repro.net.message import Message
    from repro.toolkit.events import Event

    event_wire = Event(
        type=VALUE_CHANGED,
        source_path="/app/board/canvas",
        params={"value": "stroke 182 204 17 44", "seq": 913},
        user="u3",
        instance_id="i3",
    ).to_wire()
    mix = [
        Message(kind=kinds.LOCK_REQUEST, sender="i3",
                payload={"source": ["i3", "/app/board/canvas"], "token": 77}),
        Message(kind=kinds.LOCK_REPLY, sender="server", to="i3", reply_to=1,
                payload={"granted": True, "conflicts": [],
                         "group": [["i3", "/app/board/canvas"],
                                   ["i5", "/app/board/canvas"]]}),
        Message(kind=kinds.EVENT, sender="i3",
                payload={"event": event_wire, "token": 77, "release": True}),
        Message(kind=kinds.COUPLE_UPDATE, sender="server", to="",
                payload={"action": "add",
                         "link": {"source": ["i3", "/app/board/canvas"],
                                  "target": ["i5", "/app/board/canvas"],
                                  "creator": "i3"},
                         "group": [["i3", "/app/board/canvas"],
                                   ["i5", "/app/board/canvas"]],
                         "cause": "couple"}),
    ]
    for r in range(receivers):
        mix.append(
            Message(kind=kinds.EVENT_BROADCAST, sender="server", to=f"i{r}",
                    payload={"event": event_wire,
                             "targets": [f"/app/board/canvas"],
                             "owner": ["i3", 77]},
                    trace=("a3f9" * 8, f"span{r:04d}"))
        )
        mix.append(
            Message(kind=kinds.EVENT_ACK, sender=f"i{r}",
                    payload={"owner": ["i3", 77]})
        )
    return mix


class TestCodecFrameSize:
    #: The binary codec must keep frames >= 30% smaller than JSON on the
    #: E11 fan-out mix — the wire-efficiency claim behind codec="binary".
    MAX_BINARY_RATIO = 0.70

    def test_binary_frames_beat_json_on_e11_mix(self, benchmark):
        from repro.net.binary import BINARY_CODEC
        from repro.net.codec import JSON_CODEC

        def measure():
            mix = e11_message_mix()
            json_bytes = sum(JSON_CODEC.wire_size(m) for m in mix)
            binary_bytes = sum(BINARY_CODEC.wire_size(m) for m in mix)
            return json_bytes, binary_bytes

        json_bytes, binary_bytes = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        ratio = binary_bytes / json_bytes
        assert ratio <= self.MAX_BINARY_RATIO, (
            f"binary frames are only {(1 - ratio) * 100:.1f}% smaller than "
            f"JSON on the E11 mix ({binary_bytes} vs {json_bytes} bytes); "
            f"the codec promises >= 30%"
        )


class TestBinaryCodecThroughput:
    def test_encode(self, benchmark):
        from repro.net.binary import BINARY_CODEC

        mix = e11_message_mix()

        def encode_all():
            for m in mix:
                object.__setattr__(m, "_frames", None)
            return [BINARY_CODEC.encode(m) for m in mix]

        frames = benchmark(encode_all)
        assert all(frames)

    def test_decode(self, benchmark):
        from repro.net.binary import BINARY_CODEC

        frames = [BINARY_CODEC.encode(m) for m in e11_message_mix()]

        def decode_all():
            return [decode(f) for f in frames]

        out = benchmark(decode_all)
        assert len(out) == len(frames)
