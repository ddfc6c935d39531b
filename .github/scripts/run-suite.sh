#!/usr/bin/env bash
# One env-knob test suite per invocation — the body of the CI test
# matrix (.github/workflows/ci.yml).  Each case preserves the exact
# environment, test selection, and perf gates of the former hand-copied
# job of the same name; keep the knobs in sync with docs/RUNTIME.md.
#
# Usage: .github/scripts/run-suite.sh <suite>
set -euo pipefail

export PYTHONPATH=src
suite="${1:?usage: run-suite.sh <suite>}"

case "$suite" in
  default)
    # The whole suite on the simulated in-memory network, plus the
    # frame-size gate that pins binary frames to <= 70% of JSON on the
    # E11 message mix.
    python -m pytest -x -q
    python -m pytest "benchmarks/bench_micro_components.py::TestCodecFrameSize" -x -q
    ;;
  aio)
    # The same suite with every Session running on the asyncio server
    # runtime (end-of-burst flush, backpressure, per-hop retry) instead
    # of the simulated in-memory network — proves the backend is a
    # drop-in for the whole protocol surface.
    REPRO_BACKEND=aio python -m pytest -x -q
    ;;
  observability)
    # The same suite with observability on for every Session (metrics
    # registry, span tracing, trace context on the wire) — proves the
    # instrumentation is semantically invisible — plus the overhead
    # gate that keeps it within 5% msgs/op of baseline.
    REPRO_OBSERVABILITY=1 python -m pytest -x -q
    python -m pytest "benchmarks/bench_micro_components.py::TestObservabilityOverhead" -x -q
    ;;
  persistence)
    # Recovery chaos: the integration suite and the roster-delta
    # property with event-sourced persistence on for every Session, the
    # persistence unit/property/recovery suites, and the overhead gate
    # that pins journaling to zero added wire traffic.
    REPRO_PERSISTENCE=1 python -m pytest tests/integration tests/property/test_property_roster.py -x -q
    python -m pytest tests/persist tests/property/test_property_persistence.py tests/integration/test_kill_recover.py -x -q
    python -m pytest "benchmarks/bench_micro_components.py::TestPersistenceOverhead" -x -q
    ;;
  *)
    echo "run-suite.sh: unknown suite '$suite'" >&2
    exit 2
    ;;
esac
