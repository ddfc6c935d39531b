"""The asyncio server runtime: an event loop hosting a sans-I/O endpoint.

The paper's central server (Figure 4) serializes every callback event and
couple update through one dispatch loop; the thread-per-connection TCP
host pays for that serialization with lock contention across all its
reader threads.  :class:`AsyncServerRuntime` keeps the serialization —
the endpoint's ``handle_message`` only ever runs on the event-loop
thread — but drops the threads: one loop accepts, reads, dispatches and
writes for every connection, with the end-of-burst flush, bounded send
queues and per-hop retry supplied by
:class:`~repro.net.aio.AioHostTransport` (see docs/RUNTIME.md).

The runtime is **protocol-transparent**: any endpoint with the
``handle_message(Message)`` / ``bind(transport)`` contract runs under it
unchanged — both :class:`~repro.server.server.CosoftServer` and
:class:`~repro.cluster.ShardedCosoftCluster` do.

Example::

    from repro.server.runtime import AsyncServerRuntime
    from repro.server.server import CosoftServer

    runtime = AsyncServerRuntime(CosoftServer())
    host, port = runtime.address
    ...                      # clients connect with TcpClientTransport
    runtime.close()
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Dict, Optional, Tuple

from repro.net.aio import AioHostTransport, BatchConfig, EventLoopThread
from repro.obs.log import get_logger, log_event

# EventLoopThread is defined in ``repro.net.aio`` (the transports start
# one for a private loop) and re-exported for its existing importers.
__all__ = ["AsyncServerRuntime", "EventLoopThread"]

_log = get_logger("server.runtime")


class AsyncServerRuntime:
    """Run a sans-I/O central endpoint on an asyncio event loop.

    Parameters
    ----------
    endpoint:
        A :class:`CosoftServer`, :class:`ShardedCosoftCluster`, or any
        object with the same ``handle_message`` / ``bind`` contract.
    host / port:
        Listen address; port 0 picks a free port.
    config:
        Backpressure / retry knobs (:class:`BatchConfig`).
    codec:
        The outbound wire codec (name or instance) for peers that have
        not yet negotiated one; inbound frames are auto-detected and
        each peer is answered in its own codec (docs/PROTOCOL.md).
    """

    def __init__(
        self,
        endpoint: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        config: Optional[BatchConfig] = None,
        codec: str = "json",
    ):
        self.endpoint = endpoint
        self.config = config if config is not None else BatchConfig()
        self._loop_thread = EventLoopThread()
        self.transport = AioHostTransport(
            endpoint.handle_message,
            host,
            port,
            config=self.config,
            loop=self._loop_thread.loop,
            codec=codec,
        )
        endpoint.bind(self.transport)
        self._closed = False
        addr = self.transport.address
        log_event(
            _log,
            logging.INFO,
            "runtime_started",
            host=addr[0],
            port=addr[1],
            endpoint=type(endpoint).__name__,
        )

    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) clients connect to."""
        addr = self.transport.address
        return addr[0], addr[1]

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop_thread.loop

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, Any]:
        """Runtime-level counters: traffic, connections, endpoint."""
        transport = self.transport
        snapshot: Dict[str, Any] = {
            "traffic": transport.stats.snapshot(),
            "connections": len(transport.connections()),
            "connection_errors": transport.connection_errors,
        }
        endpoint_stats = getattr(self.endpoint, "stats", None)
        if callable(endpoint_stats):
            snapshot["endpoint"] = endpoint_stats()
        return snapshot

    def close(self) -> None:
        """Stop accepting, drop connections, stop the loop thread."""
        if self._closed:
            return
        self._closed = True
        connections = len(self.transport.connections())
        self.transport.close()
        self._loop_thread.stop()
        log_event(
            _log, logging.INFO, "runtime_stopped", connections=connections
        )

    def __enter__(self) -> "AsyncServerRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
