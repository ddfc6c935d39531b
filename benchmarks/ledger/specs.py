"""Names, sizes and reasons of the seven workloads (pure data).

Kept free of any import of the program, so ``run.py`` can list workloads
without loading it; :mod:`workloads` turns a :class:`Spec` into a running
deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Spec:
    """What distinguishes one workload from the others."""

    name: str
    why: str
    kind: str
    actions: int
    instances: int
    shape: Dict[str, Any] = field(default_factory=dict)
    #: Journal into the repetition's work directory (``pair_proc2``).
    journal: bool = False
    #: Also measured with ``Session(observability=True)`` on traced runs.
    obs_probe: bool = False
    #: Deployments built and timed per repetition (the first one runs the
    #: actions): many where set-up is cheap, one where it takes a second.
    setups: int = 5
    #: Listed in ``BENCHMARK.json``, so the driver gates later changes on
    #: it.  False where two sets of runs of one commit have differed by more
    #: than any bound the driver accepts (README, "What remains").
    gated: bool = True


SPECS: Tuple[Spec, ...] = (
    Spec(
        "pair_aio",
        "2 instances, one coupled field, fan-out 1: the fixed per-action cost (lock "
        "round trip, wake-ups, thread hand-offs) on aio; pinned to 1 CPU like every "
        "run, so cpu time tracks wall time",
        "commit",
        2000,
        2,
        {"backend": "aio"},
        obs_probe=True,
    ),
    Spec(
        "pair_tcp",
        "the same pair on the thread-per-connection tcp host: same transport "
        "layer used differently, the evidence for or against retiring a host",
        "commit",
        2000,
        2,
        {"backend": "tcp"},
    ),
    Spec(
        "pair_proc2",
        "the same pair on 2 shard worker processes with journal-before-ack: "
        "cluster forward, worker and persist do work here and nowhere else",
        "commit",
        400,
        2,
        {"backend": "aio", "shards": 2, "processes": True},
        journal=True,
        obs_probe=True,
        setups=2,
        gated=False,
    ),
    Spec(
        "fanout64_aio",
        "64 instances in one couple group: 63 broadcasts + 63 acks per action, so "
        "server routing, codec, flush and remote apply dominate; setup is E11",
        "commit",
        200,
        64,
        {"backend": "aio"},
        obs_probe=True,
        setups=1,
    ),
    Spec(
        "fanout64_memory",
        "the same 64-way group with no sockets or threads: protocol CPU only, "
        "the bypass workload for any wire or transport change",
        "commit",
        400,
        64,
        {"backend": "memory"},
        setups=3,
    ),
    Spec(
        "copy_form_aio",
        "two 25-widget forms, edit + CopyTo + CopyFrom back: state sync, large "
        "payloads, no floor lock; delta write sits beside full read",
        "copy",
        750,
        2,
        {"backend": "aio"},
    ),
    Spec(
        "churn32_aio",
        "32 instances, seeded sparse couple/decouple pairs: the control plane "
        "(couple closure, COUPLE_UPDATE broadcast) with no event traffic",
        "churn",
        800,
        32,
        {"backend": "aio"},
    ),
)

SPEC_BY_NAME = {spec.name: spec for spec in SPECS}
