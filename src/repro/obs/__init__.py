"""Observability subsystem: tracing spans, mapper metrics, profiling.

Two process-wide singletons back the instrumentation woven through the
mapping pipeline:

* the **tracer** (:func:`get_tracer`) — hierarchical spans with
  pluggable sinks; zero-cost no-op when no sink is attached;
* the **metrics registry** (:data:`metrics`) — counters, gauges, and
  running histograms written by the passes unconditionally.

Analytics and persistence live in sibling modules, imported explicitly
(several depend on :mod:`repro.report` or the bench layer, which
transitively import this package):

* :mod:`repro.obs.traceview` — span trees, self-time hotspots, folded
  stacks (``chortle perf top|flame``);
* :mod:`repro.obs.progress` — per-cell heartbeat streaming for long
  sweeps (``--progress``);
* :mod:`repro.obs.qor` / :mod:`repro.obs.qordiff` — versioned QoR run
  records, baseline diffing, regression gating.

The perf gate is not here: ``chortle bench-perf`` gates its own payload
(:func:`repro.perf.benchperf.bench_gate`), and cross-commit timing is
the repo benchmark's job (``perfbench/``).

::

    from repro.obs.qor import RunRecord
    from repro.obs.traceview import hotspots, folded_stacks

See ``docs/OBSERVABILITY.md`` for the span-name and counter catalogue
and the record schemas.
"""

from repro.obs.metrics import MetricsRegistry, get_metrics, metrics
from repro.obs.tracer import (
    JsonLinesSink,
    MemorySink,
    Sink,
    SpanRecord,
    StderrSink,
    Tracer,
    capture,
    get_tracer,
    render_span_tree,
    span,
)
from repro.obs.util import recursion_limit

__all__ = [
    "JsonLinesSink",
    "MemorySink",
    "MetricsRegistry",
    "Sink",
    "SpanRecord",
    "StderrSink",
    "Tracer",
    "capture",
    "get_metrics",
    "get_tracer",
    "metrics",
    "recursion_limit",
    "render_span_tree",
    "span",
]
