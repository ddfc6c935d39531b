"""Kill-and-recover: a journaled deployment survives losing its server.

The acceptance check of the event-sourced database: run a real
collaboration through the Session facade with persistence on, kill the
server (abandon it mid-flight, or close it cleanly), rebuild from the
journal alone, and assert the recovered database carries the exact
state — fingerprint, roster, couple table, histories — the lost server
held.  Runs on the in-memory network and on the asyncio runtime, on a
single server and on a 2-shard cluster.
"""

import pytest

from repro.persist import PersistenceConfig, recover_cluster, recover_server
from repro.persist.snapshot import server_fingerprint
from repro.session import Session

from conftest import make_demo_tree

FIELD = "/app/form/name"


def collaborate(session):
    """Two users couple a field, edit it, and build some history."""
    a = session.create_instance("a", user="alice")
    b = session.create_instance("b", user="bob")
    ta = a.add_root(make_demo_tree())
    tb = b.add_root(make_demo_tree())
    a.couple(ta.find(FIELD), ("b", FIELD))
    session.pump()
    for round_no in range(3):
        ta.find(FIELD).commit(f"alice-{round_no}")
        session.pump()
        tb.find(FIELD).commit(f"bob-{round_no}")
        session.pump()
    return a, b, ta, tb


class TestSingleServer:
    def test_crash_recovery_on_memory_backend(self, tmp_path):
        session = Session(persistence=str(tmp_path))
        collaborate(session)
        live = session.server
        expected = server_fingerprint(live)
        roster = sorted(r.instance_id for r in live.registry.records())
        links = len(live.couples)
        # Kill: no close, no final sync — exactly what a crash leaves.
        cold = PersistenceConfig(directory=str(tmp_path)).build()
        try:
            recovered = recover_server(cold)
            assert server_fingerprint(recovered) == expected
            assert (
                sorted(r.instance_id for r in recovered.registry.records())
                == roster
            )
            assert len(recovered.couples) == links
        finally:
            cold.close()
            session.close()

    def test_clean_shutdown_recovery_on_aio_backend(self, tmp_path):
        session = Session(backend="aio", persistence=str(tmp_path))
        collaborate(session)
        live = session.server
        session.close()  # unregisters are journaled like everything else
        expected = server_fingerprint(live)
        cold = PersistenceConfig(directory=str(tmp_path)).build()
        try:
            recovered = recover_server(cold)
            assert server_fingerprint(recovered) == expected
        finally:
            cold.close()

    def test_recovered_server_resumes_where_the_dead_one_stopped(
        self, tmp_path
    ):
        session = Session(persistence=str(tmp_path))
        collaborate(session)
        last_seq = session.server.persistence.log.last_seq
        cold = PersistenceConfig(directory=str(tmp_path)).build()
        try:
            recovered = recover_server(cold)
            assert recovered.persistence is cold
            assert cold.log.last_seq == last_seq
            assert cold.replayed_ops > 0
        finally:
            cold.close()
            session.close()


class TestCluster:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_crash_recovery_per_shard(self, tmp_path, shards):
        session = Session(shards=shards, persistence=str(tmp_path))
        collaborate(session)
        cluster = session.cluster
        expected = {
            sid: server_fingerprint(shard)
            for sid, shard in cluster.shards.items()
        }
        config = PersistenceConfig(directory=str(tmp_path))
        recovered = recover_cluster(config, shards=shards)
        try:
            for sid, shard in recovered.shards.items():
                assert server_fingerprint(shard) == expected[sid]
            assert len(recovered.registry) == len(cluster.registry)
            assert len(recovered.mirror) == len(cluster.mirror)
            assert recovered._home == cluster._home
        finally:
            for shard in recovered.shards.values():
                if shard.persistence is not None:
                    shard.persistence.close()
            session.close()


class TestRosterVersion:
    """A recovered registry continues the version chain its clients hold:
    the first delta after recovery is theirs + 1, so it applies — not a
    duplicate to drop, not a gap to resync."""

    @pytest.mark.parametrize("shards", [0, 2], ids=["server", "cluster-2"])
    def test_next_join_applies_on_a_surviving_client(self, tmp_path, shards):
        from repro.core.instance import ApplicationInstance
        from repro.net.transport import SERVER_ID

        # Snapshots so frequent that recovery starts from one: the
        # version has to come out of it, there is no join left to replay.
        config = PersistenceConfig(directory=str(tmp_path), snapshot_every=1)
        session = Session(shards=shards, persistence=config)
        a = session.create_instance("a", user="alice")
        b = session.create_instance("b", user="bob")
        session.create_instance("c", user="carol")
        b.unregister()
        session.pump()
        dead = session.server
        assert (len(dead.registry), dead.registry.version) == (2, 4)
        assert a.roster_version == 4
        # Kill: no close, no final sync; rebuild from the journal alone
        # and put the survivor's network endpoint in the dead one's place.
        if shards:
            recovered = recover_cluster(config, shards=shards)
            journals = [s.persistence for s in recovered.shards.values()]
        else:
            cold = config.build()
            recovered = recover_server(cold)
            journals = [cold]
        try:
            assert recovered.registry.version == 4
            network = session.network
            network.detach(SERVER_ID)
            recovered.bind(network.attach(SERVER_ID, recovered.handle_message))
            d = ApplicationInstance("d", user="dora")
            d.bind(network.attach("d", d.handle_message))
            d.register()
            network.pump()
            assert set(a.roster) == set(d.roster) == {"a", "c", "d"}
            assert a.roster_version == d.roster_version == 5
            assert a.stats["roster_resyncs"] == 0
            assert a.stats["roster_duplicates"] == 0
        finally:
            for journal in journals:
                journal.close()
            session.close()
