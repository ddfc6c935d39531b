"""Export-time refreshers: a refresher's own failure is not hidden, and
the multi-process cluster's refresher survives a dead worker."""

import functools

import pytest

from repro.cluster.supervisor import ProcShardHandle, ShardSupervisor
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.remote import SampleDiffer


def test_a_refresher_that_raises_fails_the_export():
    """Anything but the refresher's own handled failures reaches the
    caller: a bug must not leave the scrape serving stale samples."""
    obs = Observability()

    def broken():
        raise RuntimeError("refresher bug")

    obs.add_refresher(broken)
    with pytest.raises(RuntimeError, match="refresher bug"):
        obs.metrics_text()


def test_a_dead_worker_does_not_cost_the_other_shards_their_samples(tmp_path):
    supervisor = ShardSupervisor(str(tmp_path))  # never watch()ed
    obs = Observability()
    supervisor.arm_observability(obs)
    pulls = []

    def pull(handle, timeout):
        pulls.append(handle.shard_id)
        if handle.shard_id == "shard-0":
            raise OSError("connection reset")  # died mid-scrape
        registry = MetricsRegistry()
        registry.counter("repro_worker_ops_total", "ops").inc(3)
        handle.obs_cache.apply(*SampleDiffer().diff(registry.collect(), None))
        return True

    try:
        for shard_id in ("shard-0", "shard-1"):
            handle = ProcShardHandle(shard_id, str(tmp_path / shard_id))
            handle.configure_observability(obs, shard=shard_id)
            handle.pull_obs = functools.partial(pull, handle)
            supervisor.handles[shard_id] = handle
        text = obs.metrics_text()
    finally:
        supervisor.close()
    assert pulls == ["shard-0", "shard-1"]
    assert 'repro_worker_ops_total{shard="shard-1"} 3' in text
