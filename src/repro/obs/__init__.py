"""Unified observability: metrics registry, tracing spans, exporters.

Stdlib-only instrumentation layer shared by the serving stack, the
session facade and the funcsim engine:

* :mod:`repro.obs.metrics` — named counters / gauges / fixed-bucket
  histograms in a thread-safe :class:`MetricsRegistry`; snapshots carry
  p50/p95/p99 estimates and merge across registries.
* :mod:`repro.obs.trace` — context-local :class:`Trace` objects with
  nested timed spans, a no-op fast path when no trace is active, and a
  bounded in-process ring buffer of recent traces.
* :mod:`repro.obs.prometheus` — text exposition rendering for the
  ``/metrics`` endpoint.
* :mod:`repro.obs.logs` — ``repro.*`` logger setup honouring
  ``--log-level`` / ``REPRO_LOG_LEVEL``.
* :mod:`repro.obs.report` — per-stage latency aggregation over trace
  dumps (the ``repro obs`` CLI subcommand).

The design contract for hot paths: instruments are created once and
held by reference (no per-call name lookups), spans observe wall time
only (they never consume RNG, so traced and untraced runs are
bit-identical), and an inactive trace context costs one ContextVar read.
"""

from repro.obs.logs import setup_logging
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    MetricsRegistry,
    counter_family,
    gauge_family,
    get_registry,
)
from repro.obs.prometheus import render_prometheus
from repro.obs.report import (
    fleet_report,
    format_fleet_report,
    format_stage_report,
    stage_report,
)
from repro.obs.trace import (
    Span,
    Trace,
    TraceBuffer,
    activate,
    current_trace,
    deactivate,
    span,
    start_trace,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "Span",
    "Trace",
    "TraceBuffer",
    "activate",
    "counter_family",
    "current_trace",
    "deactivate",
    "fleet_report",
    "format_fleet_report",
    "format_stage_report",
    "gauge_family",
    "get_registry",
    "render_prometheus",
    "setup_logging",
    "span",
    "stage_report",
    "start_trace",
]
