"""Shard links: the one contract the router holds per shard.

A :class:`ShardLink` runs one message on one shard and returns what the
shard emitted.  The router (:mod:`repro.cluster.router`) knows nothing
else about where a shard lives: :class:`LocalShardLink` drives a
``CosoftServer`` in the caller's process — under the in-process router
and inside a worker's :class:`~repro.cluster.worker.ShardEndpoint` —
and :class:`~repro.cluster.supervisor.ProcShardHandle` carries the call
to a worker process (docs/CLUSTER.md, "Shard links").
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional

from repro.net.codec import Codec
from repro.net.message import Message
from repro.net.transport import (
    ROUTER_ID,
    TrafficStats,
    Transport,
    resolve_destination,
)


class ShardLink:
    """One shard, as the router sees it.

    ``shard`` is what ``cluster.shards[shard_id]`` exposes and
    ``traffic`` the hop's :class:`TrafficStats`: the router records what
    it forwards, the link what the shard emits.
    """

    shard: Any
    traffic: TrafficStats

    def call(
        self, message: Message, suppress: Optional[FrozenSet[str]] = None
    ) -> List[Message]:
        """Run *message* on the shard; return its outputs in emit order.

        Kinds in *suppress* are dropped (the router answers those itself
        for this call) unless addressed to the router.  Outputs are
        handed over only after the shard's handler returned — with
        persistence, after the operation's journal append.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Retire the shard: it owns no state any more."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """This shard's entry in ``cluster.stats()["per_shard"]``."""
        raise NotImplementedError

    def status(self) -> Dict[str, Any]:
        """Process-level facts for ``cluster_status()["processes"]``;
        empty for a shard that shares the router's process."""
        return {}

    def routing_snapshot(self) -> Mapping[str, int]:
        """The shard's own delivery decisions, for the cluster total."""
        return {}

    def mark_epoch(self, epoch: int) -> None:
        """Stamp the routing epoch (migration count) on the journal."""

    def configure_observability(self, obs, **labels: str) -> None:
        """Wire the shard's metrics and spans into *obs*."""


class _CollectingTransport(Transport):
    """A shard server's outbound handle: keeps what one call emits."""

    def __init__(self, server: Any, codec: Optional[Codec]):
        self._server = server
        self._codec = codec
        self._closed = False
        self._stats = TrafficStats()
        #: Outputs of the call in progress (``None`` between calls).
        self.outs: Optional[List[Message]] = None
        self.suppress: Optional[FrozenSet[str]] = None

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    def send(self, message: Message) -> None:
        outs = self.outs
        if outs is None:
            return  # send outside a call: nowhere to go
        if self._codec is not None:
            # Before the filter: the shard did produce the duplicate.
            self._stats.record(
                message,
                self._codec.wire_size(message),
                resolve_destination(message),
            )
        # Router-addressed control replies always pass; suppressed kinds
        # are dropped here so they never cross a wire or reach a journal.
        suppress = self.suppress
        if message.to == ROUTER_ID or not suppress or message.kind not in suppress:
            outs.append(message)

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


#: What a shard's ``stats()`` contributes to the cluster's ``per_shard``.
_PER_SHARD_KEYS = (
    "couple_links", "couple_groups", "locks_held", "history_entries",
    "processed", "persistence",
)


class LocalShardLink(ShardLink):
    """A ``CosoftServer`` in this process behind a collecting transport.

    *codec* prices the hop for :attr:`traffic`; a worker passes ``None``
    and records nothing — the router accounts what the uplink returns.
    """

    def __init__(self, server: Any, codec: Optional[Codec] = None):
        self.shard = server
        self._transport = _CollectingTransport(server, codec)
        self.traffic = self._transport.stats
        server.bind(self._transport)

    @property
    def collected(self) -> List[Message]:
        """Outputs of the call in progress so far (journaled with it)."""
        return self._transport.outs or []

    def call(
        self, message: Message, suppress: Optional[FrozenSet[str]] = None
    ) -> List[Message]:
        transport = self._transport
        transport.outs = outs = []
        transport.suppress = suppress
        try:
            self.shard.handle_message(message)
        finally:
            transport.outs = transport.suppress = None
        return outs

    def close(self) -> None:
        if self.shard.persistence is not None:
            self.shard.persistence.close()

    def stats(self) -> Dict[str, Any]:
        full = self.shard.stats()
        return {key: full[key] for key in _PER_SHARD_KEYS}

    def routing_snapshot(self) -> Mapping[str, int]:
        return self.shard.routing.snapshot()

    def mark_epoch(self, epoch: int) -> None:
        if self.shard.persistence is not None:
            self.shard.persistence.epoch = epoch

    def configure_observability(self, obs, **labels: str) -> None:
        self.shard.configure_observability(obs, **labels)
