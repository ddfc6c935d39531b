"""Property: a roster replica converges on the registry it follows.

A client holds the registration records as an event-sourced replica: the
full roster in its REGISTER_ACK, then one versioned delta per join or
leave, a resync (RESYNC_REQUEST naming the roster, answered with a full
INSTANCE_LIST) when the versions show a gap.  Over random register /
unregister / re-register scripts in which every roster message — delta,
resync request, resync answer — is independently delivered, dropped,
duplicated or delayed past the next one to the same receiver, one more
change after the network drained brings every registered instance's
roster and version to the registry's.  Same property on the single
server and behind the router of a 2-shard cluster.

The unit tests below pin the steps of the version rule one at a time.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import kinds
from repro.net.message import Message
from repro.net.transport import SERVER_ID
from repro.persist import recover_cluster, recover_server
from repro.server.registry import RegistrationRecord, Registry
from repro.server.routing import ROSTER_RESYNCS
from repro.session import Session

from conftest import settle

MAX_IDS = 6
DELIVER, DROP, DUPLICATE, DELAY = "deliver", "drop", "duplicate", "delay"

operations = st.tuples(
    st.sampled_from(("register", "unregister")), st.integers(0, MAX_IDS - 1)
)
fates = st.sampled_from((DELIVER, DELIVER, DROP, DUPLICATE, DELAY))


def is_roster_message(message):
    return message.kind == kinds.INSTANCE_LIST or (
        message.kind == kinds.RESYNC_REQUEST and "roster" in message.payload
    )


class FaultyRosterLinks:
    """Decides the fate of every roster message a memory network carries."""

    def __init__(self, network, fates):
        self.fates = itertools.cycle(fates or [DELIVER])
        self.submit = network.submit
        self.delayed = {}
        network.submit = self

    def __call__(self, message):
        if not is_roster_message(message):
            self.submit(message)
            return
        receiver = message.to or SERVER_ID
        fate = next(self.fates)
        if fate == DELAY and receiver not in self.delayed:
            self.delayed[receiver] = message
            return
        if fate != DROP:
            self.submit(message)
        if fate == DUPLICATE:
            self.submit(message)
        overtaken = self.delayed.pop(receiver, None)
        if overtaken is not None:
            self.submit(overtaken)

    def heal(self):
        """From here on everything is delivered, what was held back first."""
        self.fates = itertools.repeat(DELIVER)
        for message in self.delayed.values():
            self.submit(message)
        self.delayed.clear()


def assert_converged(session, instances):
    registry = session.server.registry
    want = {record.instance_id: record for record in registry.records()}
    for instance in instances:
        if instance.registered:
            assert instance.roster == want, instance.instance_id
            assert instance.roster_version == registry.version, instance.instance_id


def assert_journal_rebuilds_the_registry(session):
    """What a crash right now would leave behind recovers the same
    records and continues the same version chain."""
    live = session.server
    if session.cluster is not None:
        recovered = recover_cluster(
            live.persistence_config, shards=len(live.shards)
        )
        journals = [shard.persistence for shard in recovered.shards.values()]
    else:
        journals = [live.persistence.config.build()]
        recovered = recover_server(journals[0])
    try:
        assert recovered.registry.version == live.registry.version
        assert sorted(recovered.registry.roster(), key=str) == sorted(
            live.registry.roster(), key=str
        )
    finally:
        for journal in journals:
            journal.close()


def run_script(shards, script, fates, journaled=False):
    with Session(backend="memory", shards=shards, persistence=journaled) as session:
        links = FaultyRosterLinks(session.network, fates)
        instances = [
            session.create_instance(f"i{index}", user="u", register=False)
            for index in range(MAX_IDS)
        ]
        for step, (op, who) in enumerate(script):
            instance = instances[who]
            if op == "register" and not instance.registered:
                instance.user = f"u{step}"  # a re-registration is a new record
                instance.register()
            elif op == "unregister":
                instance.unregister()
            session.pump()
        # Drain: nothing is in flight any more, and whatever request was
        # lost on the way has timed out.
        links.heal()
        session.pump()
        session.network.clock.advance(instances[0].request_timeout)
        session.create_instance("last", user="u")
        session.pump()
        assert_converged(session, instances)
        if journaled:
            assert_journal_rebuilds_the_registry(session)
        return instances


@pytest.mark.parametrize(
    "shards, journaled",
    [(0, False), (2, False), (0, True), (2, True)],
    ids=["server", "cluster-2", "server-journaled", "cluster-2-journaled"],
)
@settings(max_examples=200, deadline=None)
@given(
    script=st.lists(operations, min_size=1, max_size=14),
    fates=st.lists(fates, max_size=40),
)
def test_rosters_converge_whatever_happens_to_roster_messages(
    shards, journaled, script, fates
):
    run_script(shards, script, fates, journaled)


def test_faults_reach_the_resync_path():
    """The harness is not vacuous: a lossy script makes clients resync,
    ignore duplicates and still converge."""
    script = [("register", who) for who in range(MAX_IDS)] + [
        ("unregister", 1), ("register", 1), ("unregister", 2),
    ]
    instances = run_script(0, script, [DROP, DUPLICATE, DELIVER, DELAY])
    assert sum(i.stats["roster_resyncs"] for i in instances) > 0
    assert sum(i.stats["roster_duplicates"] for i in instances) > 0


# ---------------------------------------------------------------------------
# The version rule, one step at a time
# ---------------------------------------------------------------------------


def record(instance_id, user="u"):
    return RegistrationRecord(instance_id=instance_id, user=user)


@pytest.fixture
def replica():
    """A registered instance ``a`` whose server-side traffic the test
    forges: the messages ``a`` sends land in ``sent`` instead of at a
    server, and ``feed`` hands it INSTANCE_LIST payloads."""
    session = Session(backend="memory")
    instance = session.create_instance("a", user="alice")
    sent = []
    session.network.submit = sent.append

    def feed(payload):
        instance.handle_message(
            Message(kind=kinds.INSTANCE_LIST, sender=SERVER_ID, to="a", payload=payload)
        )

    yield session, instance, sent, feed
    del session.network.submit
    session.close()


def authority(*instance_ids):
    """A registry a forged server would hold after these joins."""
    registry = Registry()
    registry.add(record("a", "alice"))
    for instance_id in instance_ids:
        registry.add(record(instance_id))
    return registry


def joins(registry, *instance_ids):
    """Join each id in turn; the deltas announcing them."""
    deltas = []
    for instance_id in instance_ids:
        registry.add(record(instance_id))
        deltas.append(registry.joined_delta(registry.get(instance_id)))
    return deltas


def test_next_version_applies_and_older_ones_are_counted(replica):
    _, instance, sent, feed = replica
    registry = authority()
    (joined,) = joins(registry, "b")
    feed(joined)
    assert set(instance.roster) == {"a", "b"} and instance.roster_version == 2
    feed(joined)  # a duplicate delivery
    registry.remove("b")
    left = registry.left_delta("b")
    feed(left)
    feed(left)
    feed(joined)  # and a very late one: b stays gone
    assert set(instance.roster) == {"a"} and instance.roster_version == 3
    assert instance.stats["roster_duplicates"] == 3
    assert sent == [] and instance.stats["roster_resyncs"] == 0


def test_a_gap_sends_one_request_however_many_deltas_follow(replica):
    _, instance, sent, feed = replica
    registry = authority()
    _lost, *later = joins(registry, "b", "c", "d", "e", "f")
    for delta in later:
        feed(delta)
    assert [m.kind for m in sent] == [kinds.RESYNC_REQUEST]
    assert sent[0].payload == {"roster": 1} and sent[0].to == ""
    assert instance.stats["roster_resyncs"] == 1
    # Nothing past the gap was applied.
    assert set(instance.roster) == {"a"} and instance.roster_version == 1


def test_the_answer_is_adopted_and_deltas_continue_from_it(replica):
    _, instance, sent, feed = replica
    registry = authority()
    _lost, gap, late = joins(registry, "b", "c", "d")
    feed(gap)
    answer = registry.full_roster()
    feed(answer)
    assert set(instance.roster) == {"a", "b", "c", "d"}
    assert instance.roster_version == registry.version == 4
    feed(late)  # <= the answer's version: it is already in there
    assert instance.stats["roster_duplicates"] == 1
    (following,) = joins(registry, "e")  # == answer + 1
    feed(following)
    assert set(instance.roster) == {"a", "b", "c", "d", "e"}
    assert instance.roster_version == 5
    assert len(sent) == 1


def test_an_answer_older_than_the_replica_is_not_adopted(replica):
    _, instance, sent, feed = replica
    registry = authority()
    stale = registry.full_roster()
    for delta in joins(registry, "b", "c"):
        feed(delta)
    feed(stale)
    assert set(instance.roster) == {"a", "b", "c"} and instance.roster_version == 3
    assert instance.stats["roster_duplicates"] == 1


def test_an_unanswered_request_is_repeated_after_the_request_timeout(replica):
    session, instance, sent, feed = replica
    registry = authority()
    _lost, *later = joins(registry, "b", "c", "d", "e")
    feed(later[0])
    session.network.clock.advance(instance.request_timeout / 2)
    feed(later[1])
    assert len(sent) == 1
    session.network.clock.advance(instance.request_timeout / 2)
    feed(later[2])
    assert [m.kind for m in sent] == [kinds.RESYNC_REQUEST] * 2
    assert instance.stats["roster_resyncs"] == 2
    # The answer settles it: the next gap is a new request at once.
    feed(registry.full_roster())
    _lost, gap = joins(registry, "f", "g")
    feed(gap)
    assert len(sent) == 3


def test_an_unregistered_instance_does_not_ask(replica):
    _, instance, sent, feed = replica
    instance.unregister()
    sent.clear()
    feed(joins(authority("b"), "c")[0])
    assert sent == [] and instance.stats["roster_resyncs"] == 0


class TestWhoAnswers:
    def ask(self, session):
        """``a`` asks; how many INSTANCE_LISTs that puts on the network."""
        for instance_id in ("a", "b", "c"):
            session.create_instance(instance_id, user=instance_id)
        session.pump()
        by_kind = session.network.stats.by_kind
        before = by_kind[kinds.INSTANCE_LIST]
        session.instances["a"].receiver.roster.known = 1  # as if b and c were lost
        session.server.handle_message(
            Message(kind=kinds.RESYNC_REQUEST, sender="a", payload={"roster": 1})
        )
        session.pump()
        return by_kind[kinds.INSTANCE_LIST] - before

    def test_the_server_answers_the_requester_alone(self):
        with Session(backend="memory") as session:
            assert self.ask(session) == 1
            a = session.instances["a"]
            assert set(a.roster) == {"a", "b", "c"} and a.roster_version == 3
            processed = session.server.processed
            assert processed[ROSTER_RESYNCS] == 1
            assert processed[kinds.RESYNC_REQUEST] == 1

    def test_the_router_answers_and_forwards_to_no_shard(self):
        with Session(backend="memory", shards=2) as session:
            cluster = session.cluster
            assert self.ask(session) == 1
            a = session.instances["a"]
            assert set(a.roster) == {"a", "b", "c"} and a.roster_version == 3
            assert cluster.processed[ROSTER_RESYNCS] == 1
            for shard in cluster.shards.values():
                assert shard.processed[kinds.RESYNC_REQUEST] == 0
                assert shard.processed[ROSTER_RESYNCS] == 0

    @pytest.mark.parametrize("shards", [0, 2])
    def test_a_stranger_gets_an_error_not_the_roster(self, shards):
        with Session(backend="memory", shards=shards) as session:
            captured = []
            session.network.attach("mallory", captured.append)
            session.create_instance("a", user="alice")
            session.server.handle_message(
                Message(
                    kind=kinds.RESYNC_REQUEST, sender="mallory", payload={"roster": 0}
                )
            )
            session.pump()
            assert [m.kind for m in captured] == [kinds.ERROR]
            # Refused, and still not a continuity loss of state sync.
            processed = session.server.processed
            assert processed[kinds.RESYNC_REQUEST] == processed[ROSTER_RESYNCS] == 1


def test_a_gap_on_a_socket_transport_asks_once_on_the_wall_clock():
    """The same rule where the transport's clock is monotonic time."""
    with Session(backend="tcp") as session:
        a = session.create_instance("a", user="alice")
        assert settle(session, lambda: a.roster_version == 1)
        _lost, gap, later = joins(authority(), "b", "c", "d")
        for delta in (gap, later):
            forged = Message(
                kind=kinds.INSTANCE_LIST, sender=SERVER_ID, to="a", payload=delta
            )
            with a.transport.guard():
                a.handle_message(forged)
        assert a.stats["roster_resyncs"] == 1
        # The answer is the real registry's: a alone, at the same version.
        assert settle(session, lambda: a.stats["rx_instance_list"] == 3)
        assert set(a.roster) == {"a"} and a.roster_version == 1
