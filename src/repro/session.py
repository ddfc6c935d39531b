"""The :class:`Session`: one object that is a whole deployment.

Tests, benchmarks and examples all need the same setup — a central
endpoint (server or sharded cluster), a network, and N application
instances — so this module builds it in **one** class, which owns every
part and binds each instance's client transport::

    session = Session()                              # simulated network
    session = Session(backend="tcp")                 # real TCP sockets
    session = Session(backend="aio", shards=4)       # aio runtime,
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
    The aio host (:class:`~repro.net.aio.AioHostTransport`): one event
    loop it owns, one write per destination per loop pass, and bounded
    send queues with a drop-on-overflow bound — see docs/RUNTIME.md.
    Session-created instances join the host's loop through
    :class:`~repro.net.aio.AioClientTransport` (no reader thread per
    instance); the wire protocol is identical and plain TCP clients
    interoperate.

Both socket backends build their host the same way — handler, address,
codec — and bind the endpoint to it; the host owns whatever threads it
runs.

Every backend accepts ``shards=N`` to swap the single
:class:`~repro.server.server.CosoftServer` for a
:class:`~repro.cluster.ShardedCosoftCluster`; instances are wired
identically either way because the cluster speaks the same protocol on
the same endpoint.

All knobs live on :class:`SessionConfig`; keyword arguments to
:class:`Session` are conveniences that build one::

    session = Session(backend="aio", max_queue=256)
    session = Session(config=SessionConfig(backend="memory", loss_rate=0.01))

Who hears a couple or decouple is not among them: every deployment
delivers a COUPLE_UPDATE to the affected couple group only
(:mod:`repro.server.routing`, docs/PERF.md §1).

:class:`Session` is the only constructor.  What one backend has and
another lacks is a named attribute — ``network`` and ``clock``
(memory), ``host`` and ``port`` (tcp, aio) — which raises
:class:`AttributeError` naming the backend where it has none.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple, Union

from repro.cluster import ShardedCosoftCluster
from repro.core.compat import CorrespondenceRegistry
from repro.core.instance import ApplicationInstance
from repro.errors import NetworkError, UnknownCommunicatorError
from repro.net.aio import AioClientTransport, AioHostTransport
from repro.net.clock import SimClock
from repro.net.codec import get_codec
from repro.net.memory import MemoryNetwork
from repro.net.tcp import TcpClientTransport, TcpHostTransport
from repro.net.transport import TrafficStats, Transport
from repro.obs import Observability, build_observability
from repro.persist import PersistenceConfig
from repro.server.permissions import AccessControl
from repro.server.server import SERVER_ID, CosoftServer

#: Either kind of central endpoint a session can front.
ServerLike = Union[CosoftServer, ShardedCosoftCluster]

_log = logging.getLogger(__name__)


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
    #: Ring-buffer capacity of each instance's :class:`EventTrace`, the
    #: log of its own user's events (``None`` keeps the class default of
    #: 100 000 events); remote re-executions are not recorded.
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

    # aio backend ------------------------------------------------------
    #: Bound of each destination's send queue on the aio host, in
    #: messages; a message past it is dropped (docs/RUNTIME.md).
    max_queue: int = 1024

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise UnknownCommunicatorError(self.backend, BACKENDS)
        if self.shards < 0:
            raise ValueError("shards must be >= 0")
        if self.processes:
            if self.backend != "aio":
                raise ValueError(
                    'processes=True requires backend="aio" '
                    "(shard workers attach over the aio transport)"
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


#: The backends ``Session(backend=...)`` builds.
BACKENDS = ("memory", "tcp", "aio")


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
        ``ack_release``, ``max_queue``, …).

    What the backends differ in is built by the constructor and read
    only by the connect step of :meth:`create_instance`, :meth:`pump`,
    :attr:`now` and :meth:`close`; everything else is one code path.
    """

    #: Each backend-only attribute, annotated with who has it; reading
    #: one on another backend raises an AttributeError naming the backend.
    network: MemoryNetwork  # memory: the simulated network
    clock: SimClock  # memory: the simulated clock
    host: str  # tcp, aio: the address the central endpoint listens on
    port: int  # tcp, aio: its bound port

    def __init__(
        self,
        backend: Optional[str] = None,
        *,
        config: Optional[SessionConfig] = None,
        **knobs: object,
    ):
        if backend is not None and not isinstance(backend, str):
            raise TypeError(
                f"Session backend must be a name, not "
                f"{type(backend).__name__}; pass a SessionConfig as config="
            )
        if config is not None:
            if knobs:
                raise TypeError(
                    "pass either a SessionConfig or keyword knobs, not both"
                )
            if backend is not None and backend != config.backend:
                config = replace(config, backend=backend)
        else:
            if backend is not None:
                knobs["backend"] = backend
            config = SessionConfig(**knobs)  # type: ignore[arg-type]
        self.config = config
        self.instances: Dict[str, ApplicationInstance] = {}
        clock = SimClock() if config.backend == "memory" else None
        self.server, self._persist_ephemeral = _build_server(config, clock)
        # self._stats is what traffic() reports: every link of the
        # simulated network, the central endpoint's own on sockets.
        if config.backend == "memory":
            self.clock = clock
            self.network = MemoryNetwork(
                clock,
                base_latency=config.base_latency,
                per_byte_latency=config.per_byte_latency,
                jitter=config.jitter,
                loss_rate=config.loss_rate,
                duplicate_rate=config.duplicate_rate,
                seed=config.seed,
                codec=config.codec,
            )
            self.server.bind(
                self.network.attach(SERVER_ID, self.server.handle_message)
            )
            self._stats: TrafficStats = self.network.stats
        else:
            self._host_transport: Union[TcpHostTransport, AioHostTransport]
            if config.backend == "tcp":
                # One thread per connection: the paper's implementation shape.
                self._host_transport = TcpHostTransport(
                    self.server.handle_message,
                    config.host,
                    config.port,
                    codec=config.codec,
                )
            else:
                # One loop thread; end-of-pass flush, bounded send
                # queues — docs/RUNTIME.md.
                self._host_transport = AioHostTransport(
                    self.server.handle_message,
                    config.host,
                    config.port,
                    max_queue=config.max_queue,
                    codec=config.codec,
                )
            self.server.bind(self._host_transport)
            self.host, self.port = self._host_transport.address[:2]
            self._stats = self._host_transport.stats

        # Observability: the shared no-op instance, registering nothing,
        # unless enabled.
        self.obs = build_observability(config.observability)
        if self.obs.enabled:
            self.server.configure_observability(self.obs)
            self._stats.register_into(self.obs.registry, transport=config.backend)
            from repro.core.compat import DEFAULT_MAPPING_CACHE, GLOBAL_MATCH_STATS

            GLOBAL_MATCH_STATS.register_into(self.obs.registry)
            DEFAULT_MAPPING_CACHE.register_into(self.obs.registry)
        #: The HTTP /metrics endpoint (``metrics_port``), if any.
        self._metrics_http: Optional[Any] = None
        if config.metrics_port is not None:
            from repro.obs.http import MetricsHTTPServer

            self._metrics_http = MetricsHTTPServer(
                self.obs, config.host, config.metrics_port
            )

    def __getattr__(self, name: str) -> Any:
        # Reached only when normal lookup fails, e.g. for a backend-only
        # attribute (``network``, ``port``, ...) this deployment lacks.
        backend = getattr(self.__dict__.get("config"), "backend", None)
        raise AttributeError(f"Session (backend={backend!r}) has no attribute {name!r}")

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def cluster(self) -> Optional[ShardedCosoftCluster]:
        """The sharded cluster, when this session runs one (else None)."""
        server = self.server
        return server if isinstance(server, ShardedCosoftCluster) else None

    @property
    def persistence(self):
        """The journal: one object (single server), per-shard dict
        (cluster), or ``None``/empty when persistence is off."""
        server = self.server
        if isinstance(server, ShardedCosoftCluster):
            return {
                shard_id: shard.persistence
                for shard_id, shard in server.shards.items()
                if shard.persistence is not None
            }
        return server.persistence

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the /metrics endpoint, if serving."""
        server = self._metrics_http
        return server.address if server is not None else None

    @property
    def now(self) -> float:
        """Simulated seconds (memory) or wall-clock seconds (tcp/aio)."""
        if self.config.backend == "memory":
            return self.clock.now()
        return time.monotonic()

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
        """Create, connect and (by default) register an instance."""
        instance = ApplicationInstance(
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
        handler, codec = instance.handle_message, self.config.codec
        if self.config.backend == "memory":
            transport: Transport = self.network.attach(instance_id, handler)
        elif self.config.backend == "tcp":
            transport = TcpClientTransport(
                instance_id, handler, self.host, self.port, codec=codec
            )
        else:
            # Instances join the host's own loop: the whole deployment
            # — host plus every client connection — is serviced by one
            # thread instead of a reader thread per endpoint.
            loop = self._host_transport.loop
            transport = AioClientTransport(
                instance_id, handler, self.host, self.port, loop=loop, codec=codec
            )
        instance.bind(transport)
        self.instances[instance_id] = instance
        if register:
            instance.register()
        return instance

    def drop_instance(self, instance_id: str) -> None:
        """Close and forget one instance."""
        instance = self.instances.pop(instance_id, None)
        if instance is not None:
            instance.close()
            self.pump()

    def pump(self, *, idle: float = 0.02, timeout: float = 2.0) -> int:
        """Drain in-flight messages (memory) / settle traffic (tcp, aio).

        The simulator delivers every in-flight message and returns the
        delivery count.  Real sockets cannot enumerate in-flight
        messages, so there "pump" polls the central endpoint's counters
        until they have been stable for *idle* seconds (or *timeout*
        elapses) and returns the number of server-side messages that
        moved while settling.
        """
        if self.config.backend == "memory":
            return self.network.pump()
        stats = self._stats

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

    def traffic(self) -> Dict[str, object]:
        """Traffic counters with the same fields on every backend: the
        whole simulated network (memory), the server side (tcp, aio)."""
        return self._stats.snapshot()

    # ------------------------------------------------------------------
    # Observability (see docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus text exposition of every registered metric."""
        return self.obs.metrics_text()

    def metrics_json(self, *, include_spans: bool = False) -> str:
        """All metrics (and optionally spans) as one JSON document."""
        return self.obs.metrics_json(include_spans=include_spans)

    def span_dump(self) -> str:
        """Human-readable dump of every buffered trace tree."""
        return self.obs.span_dump()

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
            "spans": self.obs.spans.stats(),
        }

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _close_persistence(self) -> None:
        """Flush and close the journals; drop an ephemeral directory."""
        journals = self.persistence
        if not isinstance(journals, dict):
            journals = {} if journals is None else {"": journals}
        for persist in journals.values():
            try:
                persist.close()
            except OSError:
                _log.warning("closing a journal failed", exc_info=True)
        if self._persist_ephemeral is not None:
            shutil.rmtree(self._persist_ephemeral, ignore_errors=True)
            self._persist_ephemeral = None

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
        if self.config.backend == "memory":
            self.network.pump()
        else:
            self._host_transport.close()
        # A multi-process cluster owns worker subprocesses: shut the
        # supervisor down before dropping any ephemeral journal dir.
        shutdown = getattr(self.server, "close", None)
        if shutdown is not None:
            shutdown()
        self._close_persistence()

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
