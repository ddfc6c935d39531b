"""Unified observability: metrics registry, causal tracing, exporters.

One :class:`Observability` object per deployment bundles a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracing.SpanRecorder`.  It is threaded through the
Session into the server (or cluster), every application instance, and
the transports' stats objects, so a single call captures the whole
deployment:

>>> session = Session(observability=True)          # doctest: +SKIP
>>> print(session.metrics_text())                  # doctest: +SKIP

Disabled is the default and costs nothing on the hot path: every
instrumented site holds :data:`NULL_OBS` (``enabled=False`` plus a
no-op registry), so the check is one attribute load.  Enable via
``SessionConfig(observability=True)`` or an :class:`ObservabilityConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from repro.obs.export import (
    render_json,
    render_prometheus,
    render_span_dump,
    spans_to_dicts,
)
from repro.obs.log import get_logger, log_event, setup_logging
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Sample,
    log_buckets,
)
from repro.obs.tracing import Span, SpanRecorder, observe_latencies

__all__ = [
    "Observability",
    "ObservabilityConfig",
    "NULL_OBS",
    "build_observability",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Sample",
    "Span",
    "SpanRecorder",
    "DEFAULT_LATENCY_BUCKETS",
    "log_buckets",
    "observe_latencies",
    "render_json",
    "render_prometheus",
    "render_span_dump",
    "spans_to_dicts",
    "get_logger",
    "log_event",
    "setup_logging",
]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs for an enabled observability layer."""

    #: Record metrics into a live registry.
    metrics: bool = True
    #: Stamp trace context into messages and record spans.
    tracing: bool = True
    #: Ring-buffer capacity of the span recorder.
    span_maxlen: int = 4096


class Observability:
    """A deployment's registry + span recorder (or the disabled stand-in)."""

    def __init__(
        self, config: Optional[ObservabilityConfig] = None, *, enabled: bool = True
    ):
        self.config = config if config is not None else ObservabilityConfig()
        self.enabled = enabled
        if enabled and self.config.metrics:
            self.registry: Union[MetricsRegistry, NullRegistry] = (
                MetricsRegistry()
            )
        else:
            self.registry = NULL_REGISTRY
        self.tracing = enabled and self.config.tracing
        self.spans = SpanRecorder(maxlen=self.config.span_maxlen)
        self._refreshers: List[Callable[[], None]] = []
        self._latency_seen: set = set()

    # ------------------------------------------------------------------
    # Remote sources
    # ------------------------------------------------------------------

    def add_refresher(self, refresher: Callable[[], None]) -> None:
        """Register a pre-export hook that pulls in remote telemetry.

        The multi-process cluster uses this: before every export the
        supervisor scrapes its workers (delta pulls over the admin link)
        so ``metrics_text()``/``span_dump()`` cover the whole fleet.
        Refreshers run off the message hot path, only at export time.
        """
        self._refreshers.append(refresher)

    def refresh(self) -> None:
        """Run registered refreshers, then fold newly finished spans
        (local and freshly ingested remote ones) into the latency
        histograms, incrementally.  A refresher handles its own sources'
        failures (a dead worker must not break a scrape); anything else
        it raises propagates."""
        for refresher in self._refreshers:
            refresher()
        if self.tracing and self.registry.enabled:
            self.observe_span_latencies()

    # ------------------------------------------------------------------
    # Export façade
    # ------------------------------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus text exposition of every registered metric."""
        self.refresh()
        return render_prometheus(self.registry.collect())

    def metrics_json(self, *, include_spans: bool = False) -> str:
        self.refresh()
        return render_json(
            self.registry.collect(),
            self.spans if include_spans else None,
        )

    def span_dump(self) -> str:
        self.refresh()
        return render_span_dump(self.spans)

    def observe_span_latencies(self) -> int:
        """Fold finished span durations into latency histograms.

        Incremental: every span folds exactly once, however often this
        (or any exporting call, which refreshes first) runs.
        """
        if len(self._latency_seen) > 8 * self.config.span_maxlen:
            # Evicted spans can never be re-observed; drop their ids.
            buffered = {span.span_id for span in self.spans}
            self._latency_seen &= buffered
        return observe_latencies(
            self.spans, self.registry, seen=self._latency_seen
        )

    def __repr__(self) -> str:
        return (
            f"Observability(enabled={self.enabled}, "
            f"tracing={self.tracing}, spans={len(self.spans)})"
        )


#: The process-wide disabled instance — default wiring everywhere.
NULL_OBS = Observability(enabled=False)


def build_observability(
    value: Union[None, bool, ObservabilityConfig, Observability],
) -> Observability:
    """Resolve a ``SessionConfig.observability`` value to an instance.

    ``None``/``False`` → :data:`NULL_OBS`; ``True`` → a fresh enabled
    instance with defaults; a config → an enabled instance with those
    knobs; an :class:`Observability` passes through (letting several
    Sessions share one registry).
    """
    if value is None or value is False:
        return NULL_OBS
    if value is True:
        return Observability()
    if isinstance(value, ObservabilityConfig):
        return Observability(value)
    if isinstance(value, Observability):
        return value
    raise TypeError(
        "observability must be None, a bool, an ObservabilityConfig "
        f"or an Observability, not {type(value).__name__}"
    )
