"""The unified :class:`Session` facade: one-call wiring of a deployment.

Tests, benchmarks and examples all need the same setup — a central
endpoint (server or sharded cluster), a network, and N application
instances — so this module packages it behind **one** class::

    session = Session()                              # simulated network
    session = Session(backend="tcp")                 # real TCP sockets
    session = Session(backend="aio", shards=4)       # asyncio runtime,
                                                     # 4-shard cluster

Backends
--------
``"memory"``
    Deterministic discrete-event simulation with a latency model — the
    default for tests and benchmarks.  :meth:`Session.pump` delivers all
    in-flight messages; time is simulated.
``"tcp"``
    Real localhost TCP sockets, one thread per connection (the paper's
    implementation shape).
``"aio"``
    The asyncio server runtime (:mod:`repro.server.runtime`): one event
    loop, one write per destination per loop burst, bounded send queues
    with a drop-on-overflow bound, and per-hop retry — see
    docs/RUNTIME.md.
    Session-created instances join the runtime's loop through
    :class:`~repro.net.aio.AioClientTransport`
    (no reader thread per instance); the wire protocol is identical and
    plain TCP clients interoperate.

Every backend accepts ``shards=N`` to swap the single
:class:`~repro.server.server.CosoftServer` for a
:class:`~repro.cluster.ShardedCosoftCluster`; instances are wired
identically either way because the cluster speaks the same protocol on
the same endpoint.

All knobs live on :class:`SessionConfig`; keyword arguments to
:class:`Session` are conveniences that build one::

    session = Session(backend="aio", max_queue=256, retry_limit=3)
    session = Session(config=SessionConfig(backend="memory", loss_rate=0.01))

Who hears a couple or decouple is not among them: every deployment
delivers a COUPLE_UPDATE to the affected couple group only
(:mod:`repro.server.routing`, docs/PERF.md §1).

:class:`Session` is the only constructor.  What one backend has and
another lacks is a named attribute — ``network`` and ``clock``
(memory), ``host`` and ``port`` (tcp, aio), ``runtime`` (aio) — which
raises :class:`AttributeError` naming the backend where it has none.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cluster import ShardedCosoftCluster
from repro.core.compat import CorrespondenceRegistry
from repro.core.instance import ApplicationInstance
from repro.errors import NetworkError, UnknownCommunicatorError
from repro.net.aio import BatchConfig
from repro.net.clock import SimClock
from repro.net.codec import get_codec
from repro.net.memory import MemoryNetwork
from repro.net.tcp import TcpHostTransport
from repro.net.transport import TrafficStats
from repro.obs import Observability, build_observability
from repro.persist import PersistenceConfig
from repro.server.permissions import AccessControl
from repro.server.runtime import AsyncServerRuntime
from repro.server.server import SERVER_ID, CosoftServer

#: Either kind of central endpoint a session can front.
ServerLike = Union[CosoftServer, ShardedCosoftCluster]

_log = logging.getLogger(__name__)

#: BatchConfig field names accepted as Session(...) keyword conveniences.
_BATCH_FIELDS = tuple(f.name for f in fields(BatchConfig))


def _resolve_persistence(
    setting: Union[None, bool, str, PersistenceConfig],
) -> Tuple[Optional[PersistenceConfig], Optional[str]]:
    """Normalize the persistence knob to ``(config, ephemeral_dir)``.

    *ephemeral_dir* is a tempdir the session owns and removes at close —
    only created for the bare ``True`` setting, where the caller asked
    for journaling but named no place to keep it.
    """
    if setting is None or setting is False:
        return None, None
    if isinstance(setting, PersistenceConfig):
        return setting, None
    if setting is True:
        ephemeral = tempfile.mkdtemp(prefix="repro-persist-")
        return PersistenceConfig(directory=ephemeral), ephemeral
    return PersistenceConfig(directory=str(setting)), None


@dataclass
class SessionConfig:
    """Everything a :class:`Session` needs to build a deployment."""

    backend: str = "memory"
    #: 0 = single server; N >= 1 = sharded cluster with N shards.
    shards: int = 0
    #: Run each shard as a supervised OS process (docs/CLUSTER.md): the
    #: router spawns one ``repro.cluster.worker`` per shard, each with
    #: its own journal, heartbeat-monitored and restarted-with-recovery
    #: on crash.  Requires ``backend="aio"`` and ``shards >= 1``.  The
    #: journals live under the ``persistence`` directory when one is
    #: named, else in an ephemeral directory removed at close.
    processes: bool = False
    #: Wire codec for every transport of the deployment: ``"json"`` (the
    #: debugging-friendly historical format) or ``"binary"`` (struct-packed
    #: envelope, interned names, varint lengths — docs/PROTOCOL.md).
    #: Codecs negotiate per connection, so sessions with different codecs
    #: interoperate.
    codec: str = "json"

    # Central endpoint ------------------------------------------------
    default_allow: bool = True
    admin_users: Tuple[str, ...] = ()
    ack_release: bool = True
    correspondences: Optional[CorrespondenceRegistry] = None
    vnodes: int = 64
    #: Observability: ``None``/``False`` (disabled, the default), ``True``
    #: (metrics and tracing on), or a ready :class:`Observability`
    #: instance to share across sessions.
    observability: Union[None, bool, Observability] = None
    #: Serve this deployment's metrics over HTTP (docs/OBSERVABILITY.md):
    #: ``None`` (off, the default) or a port for a stdlib ``/metrics``
    #: endpoint (``0`` binds an ephemeral port — read it back from
    #: ``session.metrics_address``).  Each scrape re-collects, so on a
    #: multi-process cluster it transparently delta-pulls every worker.
    metrics_port: Optional[int] = None
    #: Event-sourced persistence (docs/PERSISTENCE.md): ``None``/``False``
    #: (off, the default — frames and hot paths stay byte-identical),
    #: ``True`` (journal into an ephemeral directory removed at close), a
    #: directory path, or a ready :class:`~repro.persist.PersistenceConfig`.
    persistence: Union[None, bool, str, PersistenceConfig] = None
    #: Ring-buffer capacity of each instance's :class:`EventTrace`
    #: (``None`` keeps the class default of 100 000 events).
    trace_maxlen: Optional[int] = None

    # Simulated network model (memory backend) ------------------------
    base_latency: float = 0.001
    per_byte_latency: float = 0.0
    jitter: float = 0.0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    seed: int = 0
    service_time: float = 0.0

    # Socket backends (tcp, aio) --------------------------------------
    host: str = "127.0.0.1"
    port: int = 0

    # Asyncio runtime (aio backend) -----------------------------------
    batch: BatchConfig = field(default_factory=BatchConfig)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise UnknownCommunicatorError(self.backend, BACKENDS)
        if self.shards < 0:
            raise ValueError("shards must be >= 0")
        if self.processes:
            if self.backend != "aio":
                raise ValueError(
                    'processes=True requires backend="aio" '
                    "(shard workers attach over the asyncio transport)"
                )
            if self.shards < 1:
                raise ValueError("processes=True requires shards >= 1")
        get_codec(self.codec)  # fail fast on anything but a codec name


def _observability_enabled(value: Union[None, bool, Observability]) -> bool:
    """Whether a ``SessionConfig.observability`` value enables the layer.

    Decided *without* building anything — the multi-process cluster needs
    the answer before it spawns workers (their instrumentation rides in
    the spawn command line), which happens before the session's own
    observability object exists.
    """
    if isinstance(value, Observability):
        return value.enabled
    return bool(value)


def _build_server(
    config: SessionConfig, clock=None
) -> Tuple[ServerLike, Optional[str]]:
    """The central endpoint: one server, or a cluster when ``shards``.

    Returns ``(endpoint, ephemeral_persistence_dir)`` — the directory is
    ``None`` unless the session must clean up a tempdir-backed journal
    at close (the bare ``persistence=True`` setting).
    """
    persist_config, ephemeral = _resolve_persistence(config.persistence)
    if config.processes:
        from repro.cluster.proc import ProcCluster

        # A multi-process cluster always journals (crash recovery needs
        # the per-shard op logs); sessions that named no directory get an
        # ephemeral one, removed at close like any other True setting.
        if persist_config is None or persist_config.directory is None:
            ephemeral = tempfile.mkdtemp(prefix="repro-proc-")
            directory = ephemeral
            snapshot_every = 500
        else:
            directory = persist_config.directory
            snapshot_every = persist_config.snapshot_every
        return (
            ProcCluster(
                config.shards,
                directory=directory,
                link_codec=config.codec,
                snapshot_every=snapshot_every,
                vnodes=config.vnodes,
                default_allow=config.default_allow,
                admin_users=config.admin_users,
                ack_release=config.ack_release,
                # Workers spawn before configure_observability runs, so
                # the session's setting must ride in the spawn env/flags.
                observability=_observability_enabled(config.observability),
            ),
            ephemeral,
        )
    if config.shards:
        kwargs = dict(
            vnodes=config.vnodes,
            default_allow=config.default_allow,
            admin_users=config.admin_users,
            ack_release=config.ack_release,
            persistence=persist_config,
            codec=config.codec,
        )
        if clock is not None:
            kwargs["clock"] = clock
            kwargs["service_time"] = config.service_time
        return ShardedCosoftCluster(config.shards, **kwargs), ephemeral
    kwargs = dict(
        access=AccessControl(default_allow=config.default_allow),
        admin_users=config.admin_users,
        ack_release=config.ack_release,
        persistence=(
            persist_config.build() if persist_config is not None else None
        ),
    )
    if clock is not None:
        kwargs["clock"] = clock
    return CosoftServer(**kwargs), ephemeral


class _BackendBase:
    """Shared machinery of the session backends."""

    config: SessionConfig
    server: ServerLike
    instances: Dict[str, ApplicationInstance]
    obs: Observability
    #: Tempdir backing an ephemeral journal (``persistence=True``), if any.
    _persist_ephemeral: Optional[str] = None
    #: The HTTP /metrics endpoint (``metrics_port``), if any.
    _metrics_http: Optional[Any] = None

    def _init_observability(
        self, transport_stats: Optional[TrafficStats] = None
    ) -> None:
        """Build the deployment's observability and wire the collectors.

        Called by each backend once the central endpoint is bound.  With
        observability disabled this installs the shared no-op instance
        and registers nothing.
        """
        self.obs = build_observability(self.config.observability)
        if self.obs.enabled:
            self.server.configure_observability(self.obs)
            if transport_stats is not None:
                transport_stats.register_into(
                    self.obs.registry, transport=self.config.backend
                )
            from repro.core.compat import DEFAULT_MAPPING_CACHE, GLOBAL_MATCH_STATS

            GLOBAL_MATCH_STATS.register_into(self.obs.registry)
            DEFAULT_MAPPING_CACHE.register_into(self.obs.registry)
        if self.config.metrics_port is not None:
            from repro.obs.http import MetricsHTTPServer

            self._metrics_http = MetricsHTTPServer(
                self.obs, self.config.host, self.config.metrics_port
            )

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the /metrics endpoint, if serving."""
        server = self._metrics_http
        return server.address if server is not None else None

    @property
    def cluster(self) -> Optional[ShardedCosoftCluster]:
        """The sharded cluster, when this session runs one (else None)."""
        server = self.server
        return server if isinstance(server, ShardedCosoftCluster) else None

    def _persistences(self) -> List[Any]:
        """Every live journal of this deployment (one per shard)."""
        server = self.server
        if isinstance(server, ShardedCosoftCluster):
            found = [shard.persistence for shard in server.shards.values()]
        else:
            found = [getattr(server, "persistence", None)]
        return [p for p in found if p is not None]

    def _close_persistence(self) -> None:
        """Flush and close the journals; drop an ephemeral directory."""
        for persist in self._persistences():
            try:
                persist.close()
            except OSError:
                _log.warning("closing a journal failed", exc_info=True)
        if self._persist_ephemeral is not None:
            shutil.rmtree(self._persist_ephemeral, ignore_errors=True)
            self._persist_ephemeral = None

    def drop_instance(self, instance_id: str) -> None:
        """Close and forget one instance."""
        instance = self.instances.pop(instance_id, None)
        if instance is not None:
            instance.close()
            self.pump()

    def close(self) -> None:
        if self._metrics_http is not None:
            try:
                self._metrics_http.close()
            except OSError:
                _log.warning("closing the /metrics endpoint failed", exc_info=True)
            self._metrics_http = None
        for instance in list(self.instances.values()):
            # A dead peer's UNREGISTER cannot be sent; the close goes on.
            try:
                instance.close()
            except (NetworkError, OSError):
                _log.warning(
                    "closing instance %r failed", instance.instance_id, exc_info=True
                )
        self.instances.clear()

    # Subclass responsibilities ---------------------------------------

    def create_instance(self, instance_id, user, **kwargs) -> ApplicationInstance:
        raise NotImplementedError

    def pump(self) -> int:
        raise NotImplementedError

    def traffic(self) -> Dict[str, object]:
        raise NotImplementedError

    @property
    def now(self) -> float:
        raise NotImplementedError


class _MemoryBackend(_BackendBase):
    """A complete deployment on the simulated network."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.clock = SimClock()
        self.network = MemoryNetwork(
            self.clock,
            base_latency=config.base_latency,
            per_byte_latency=config.per_byte_latency,
            jitter=config.jitter,
            loss_rate=config.loss_rate,
            duplicate_rate=config.duplicate_rate,
            seed=config.seed,
            codec=config.codec,
        )
        self.server, self._persist_ephemeral = _build_server(
            config, clock=self.clock
        )
        self.server.bind(self.network.attach(SERVER_ID, self.server.handle_message))
        self.correspondences = config.correspondences
        self.instances: Dict[str, ApplicationInstance] = {}
        self._init_observability(self.network.stats)

    def create_instance(
        self,
        instance_id: str,
        user: str,
        *,
        app_type: str = "",
        register: bool = True,
        lock_timeout: float = 5.0,
        request_timeout: float = 5.0,
        replica_fast_path: bool = True,
    ) -> ApplicationInstance:
        instance = ApplicationInstance(
            instance_id,
            user,
            app_type=app_type,
            correspondences=self.correspondences,
            lock_timeout=lock_timeout,
            request_timeout=request_timeout,
            replica_fast_path=replica_fast_path,
            observability=self.obs,
            trace_maxlen=self.config.trace_maxlen,
        ).connect(self.network)
        self.instances[instance_id] = instance
        if register:
            instance.register()
        return instance

    def pump(self) -> int:
        """Deliver all in-flight messages; returns the delivery count."""
        return self.network.pump()

    @property
    def now(self) -> float:
        return self.clock.now()

    def traffic(self) -> Dict[str, object]:
        """Network traffic counters (messages, bytes, per kind/link)."""
        return self.network.stats.snapshot()

    def close(self) -> None:
        super().close()
        self.network.pump()
        self._close_persistence()


class _SocketBackendBase(_BackendBase):
    """Shared machinery of the real-socket backends (tcp, aio)."""

    host: str
    port: int

    def create_instance(
        self,
        instance_id: str,
        user: str,
        *,
        app_type: str = "",
        register: bool = True,
        lock_timeout: float = 5.0,
        request_timeout: float = 5.0,
        replica_fast_path: bool = True,
    ) -> ApplicationInstance:
        instance = self._connect(
            ApplicationInstance(
                instance_id,
                user,
                app_type=app_type,
                correspondences=self.config.correspondences,
                lock_timeout=lock_timeout,
                request_timeout=request_timeout,
                replica_fast_path=replica_fast_path,
                observability=self.obs,
                trace_maxlen=self.config.trace_maxlen,
            )
        )
        self.instances[instance_id] = instance
        if register:
            instance.register()
        return instance

    def _connect(self, instance: ApplicationInstance) -> ApplicationInstance:
        return instance.connect_tcp(
            self.host, self.port, codec=self.config.codec
        )

    def _server_stats(self) -> TrafficStats:
        raise NotImplementedError

    def pump(self, idle: float = 0.02, timeout: float = 2.0) -> int:
        """Settle the deployment: wait until traffic is quiescent.

        Real-socket backends cannot enumerate in-flight messages the way
        the simulator can, so "pump" polls the server transport's
        counters until they have been stable for *idle* seconds (or
        *timeout* elapses).  Returns the number of server-side messages
        that moved while settling.
        """
        stats = self._server_stats()

        def probe() -> Tuple[int, int]:
            return stats.messages, stats.dropped

        start = probe()
        last_change = time.monotonic()
        last = start
        deadline = last_change + timeout
        while time.monotonic() < deadline:
            time.sleep(0.002)
            current = probe()
            if current != last:
                last = current
                last_change = time.monotonic()
            elif time.monotonic() - last_change >= idle:
                break
        return last[0] - start[0]

    @property
    def now(self) -> float:
        return time.monotonic()

    def traffic(self) -> Dict[str, object]:
        """Server-side traffic counters (same fields as the simulator)."""
        return self._server_stats().snapshot()


class _TcpBackend(_SocketBackendBase):
    """A deployment over real localhost TCP sockets (thread per conn)."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.server, self._persist_ephemeral = _build_server(config)
        self._host_transport = TcpHostTransport(
            self.server.handle_message,
            host=config.host,
            port=config.port,
            codec=config.codec,
        )
        self.server.bind(self._host_transport)
        self.host, self.port = self._host_transport.address
        self.instances: Dict[str, ApplicationInstance] = {}
        self._init_observability(self._host_transport.stats)

    def _server_stats(self) -> TrafficStats:
        return self._host_transport.stats

    def close(self) -> None:
        super().close()
        self._host_transport.close()
        self._close_persistence()


class _AioBackend(_SocketBackendBase):
    """A deployment under the asyncio server runtime (end-of-burst
    flush, bounded send queues, per-hop retry — docs/RUNTIME.md)."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.server, self._persist_ephemeral = _build_server(config)
        self.runtime = AsyncServerRuntime(
            self.server,
            config.host,
            config.port,
            config=config.batch,
            codec=config.codec,
        )
        self.host, self.port = self.runtime.address
        self.instances: Dict[str, ApplicationInstance] = {}
        self._init_observability(self.runtime.transport.stats)

    def _connect(self, instance: ApplicationInstance) -> ApplicationInstance:
        # Instances join the runtime's own loop: the whole deployment —
        # host plus every client connection — is serviced by one thread
        # instead of a reader thread per endpoint.
        return instance.connect_aio(
            self.host,
            self.port,
            loop=self.runtime.loop,
            codec=self.config.codec,
        )

    def _server_stats(self) -> TrafficStats:
        return self.runtime.transport.stats

    def close(self) -> None:
        super().close()
        self.runtime.close()
        # A multi-process cluster owns worker subprocesses: shut the
        # supervisor down before dropping any ephemeral journal dir.
        shutdown = getattr(self.server, "close", None)
        if shutdown is not None:
            shutdown()
        self._close_persistence()


#: The backends ``Session(backend=...)`` builds, by name.
_BACKEND_TYPES = {"memory": _MemoryBackend, "tcp": _TcpBackend, "aio": _AioBackend}
BACKENDS = tuple(_BACKEND_TYPES)


class Session:
    """A complete COSOFT deployment behind one constructor.

    Example::

        session = Session()                      # simulated, single server
        teacher = session.create_instance("teacher", user="ms-lin")
        student = session.create_instance("student-1", user="kim")
        ...
        session.pump()                           # drain in-flight messages
        session.close()

    Parameters
    ----------
    backend:
        ``"memory"`` (default), ``"tcp"`` or ``"aio"``.
    config:
        A ready-made :class:`SessionConfig`.  Mutually exclusive with the
        keyword conveniences below.
    **knobs:
        Any :class:`SessionConfig` field (``shards``, ``loss_rate``,
        ``ack_release``, …) or :class:`~repro.net.aio.BatchConfig` field
        (``max_queue``, ``retry_limit``, …).
    """

    def __init__(
        self,
        backend: Optional[str] = None,
        *,
        config: Optional[SessionConfig] = None,
        **knobs: object,
    ):
        if config is not None:
            if knobs:
                raise TypeError(
                    "pass either a SessionConfig or keyword knobs, not both"
                )
            if backend is not None and backend != config.backend:
                config = replace(config, backend=backend)
        else:
            batch_knobs = {
                key: knobs.pop(key) for key in _BATCH_FIELDS if key in knobs
            }
            if batch_knobs:
                knobs["batch"] = BatchConfig(**batch_knobs)  # type: ignore[arg-type]
            if backend is not None:
                knobs["backend"] = backend
            config = SessionConfig(**knobs)  # type: ignore[arg-type]
        self.config = config
        self._impl: _BackendBase = _BACKEND_TYPES[config.backend](config)

    # ------------------------------------------------------------------
    # The common facade
    # ------------------------------------------------------------------

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def server(self) -> ServerLike:
        return self._impl.server

    @property
    def cluster(self) -> Optional[ShardedCosoftCluster]:
        """The sharded cluster, when this session runs one (else None)."""
        return self._impl.cluster

    @property
    def instances(self) -> Dict[str, ApplicationInstance]:
        return self._impl.instances

    @property
    def persistence(self):
        """The journal: one object (single server), per-shard dict
        (cluster), or ``None``/empty when persistence is off."""
        server = self._impl.server
        if isinstance(server, ShardedCosoftCluster):
            return {
                shard_id: shard.persistence
                for shard_id, shard in server.shards.items()
                if shard.persistence is not None
            }
        return server.persistence

    @property
    def now(self) -> float:
        """Simulated seconds (memory) or wall-clock seconds (tcp/aio)."""
        return self._impl.now

    def create_instance(
        self, instance_id: str, user: str, **kwargs: object
    ) -> ApplicationInstance:
        """Create, connect and (by default) register an instance."""
        return self._impl.create_instance(instance_id, user, **kwargs)

    def drop_instance(self, instance_id: str) -> None:
        """Close and forget one instance."""
        self._impl.drop_instance(instance_id)

    def pump(self, **kwargs: object) -> int:
        """Drain in-flight messages (memory) / settle traffic (tcp, aio)."""
        return self._impl.pump(**kwargs)

    def traffic(self) -> Dict[str, object]:
        """Traffic counters with the same fields on every backend."""
        return self._impl.traffic()

    # ------------------------------------------------------------------
    # Backend-specific attributes: each raises AttributeError naming the
    # backend on a deployment that has none.
    # ------------------------------------------------------------------

    def _backend_attribute(self, name: str) -> Any:
        try:
            return getattr(self._impl, name)
        except AttributeError:
            raise AttributeError(
                f"Session (backend={self.backend!r}) has no attribute {name!r}"
            ) from None

    @property
    def network(self) -> MemoryNetwork:
        """The simulated network (memory backend)."""
        return self._backend_attribute("network")

    @property
    def clock(self) -> SimClock:
        """The simulated clock (memory backend)."""
        return self._backend_attribute("clock")

    @property
    def host(self) -> str:
        """The address the central endpoint listens on (tcp, aio)."""
        return self._backend_attribute("host")

    @property
    def port(self) -> int:
        """The bound port of the central endpoint (tcp, aio)."""
        return self._backend_attribute("port")

    @property
    def runtime(self) -> AsyncServerRuntime:
        """The asyncio server runtime (aio backend)."""
        return self._backend_attribute("runtime")

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the /metrics endpoint, if serving."""
        return self._backend_attribute("metrics_address")

    # ------------------------------------------------------------------
    # Observability (see docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------

    @property
    def obs(self) -> Observability:
        """This deployment's observability (the no-op one when disabled)."""
        return self._impl.obs

    def metrics_text(self) -> str:
        """Prometheus text exposition of every registered metric."""
        return self._impl.obs.metrics_text()

    def metrics_json(self, *, include_spans: bool = False) -> str:
        """All metrics (and optionally spans) as one JSON document."""
        return self._impl.obs.metrics_json(include_spans=include_spans)

    def span_dump(self) -> str:
        """Human-readable dump of every buffered trace tree."""
        return self._impl.obs.span_dump()

    def trace_stats(self) -> Dict[str, Any]:
        """Occupancy of the bounded trace buffers.

        Per-instance :class:`~repro.toolkit.events.EventTrace` counters
        plus the shared span ring buffer — the operator's check that
        nothing unbounded is growing in a long-running deployment.
        """
        return {
            "instances": {
                instance_id: instance.trace.stats()
                for instance_id, instance in self.instances.items()
            },
            "spans": self._impl.obs.spans.stats(),
        }

    def close(self) -> None:
        self._impl.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session(backend={self.backend!r}, shards={self.config.shards}, "
            f"instances={len(self.instances)})"
        )


#: The supported public surface of this module (README "Public API").
__all__ = [
    "BACKENDS",
    "ServerLike",
    "Session",
    "SessionConfig",
]
