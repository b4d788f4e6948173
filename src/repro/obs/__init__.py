"""Observability for the simulated testbed: tracing, histograms, vmstat.

The paper observed its live testbed with Ethereal (packet traces),
``nfsstat`` (per-op counters), and ``vmstat`` (utilization sampling).
This package is the simulated equivalent of all three:

* :class:`~repro.obs.tracer.Tracer` records protocol messages, causal
  spans across every layer, point events, latency histograms, and sampled
  utilization timelines.  The default :data:`~repro.obs.tracer.NULL_TRACER`
  is a disabled no-op, so untraced runs are bit-identical to the
  uninstrumented simulator;
* :mod:`~repro.obs.export` renders a recording as a JSONL packet trace, a
  per-op summary table, or a Chrome ``trace_event`` file for
  ``chrome://tracing`` / Perfetto;
* :class:`~repro.obs.proxy.TracedClient` roots each causal tree at the
  system call the workload issued;
* :class:`~repro.obs.profile.Profile` turns a recording into per-layer
  time attribution, critical paths, and queueing analytics (the analysis
  behind the paper's Tables 5/9/10);
* :mod:`~repro.obs.bench` runs named workload suites on both stacks and
  emits/compares schema-versioned ``BENCH_*.json`` documents — the
  ``repro bench`` regression gate;
* :mod:`~repro.obs.telemetry` is the *scale-out* counterpart of the
  tracer: opt-in, bounded-memory streaming rollups of every tier
  (utilization, queue depth, rates), invariant watchers over the
  stream, run heartbeats on stderr, and associative cross-worker
  merging — rendered by :mod:`~repro.obs.dashboard` as ASCII timeline
  dashboards or a self-contained HTML export (``repro dash``).

* :mod:`~repro.obs.explain` is the *differential* layer: it diffs two
  runs (stack vs stack, baseline vs candidate bench JSON, faulted vs
  clean) into a deterministic report — per-layer time deltas that sum
  exactly to the completion-time delta, per-op message drift, queueing
  and telemetry deltas, and a ranked plain-English blame list
  (``repro explain``).  It also hosts the
  :class:`~repro.obs.explain.FlightRecorder`, a bounded ring of recent
  kernel events/messages dumped as evidence when sanitizer or telemetry
  findings fire.

Build a traced stack with ``make_stack(kind, trace=True)`` and read
``stack.tracer`` after the run, or use the ``repro trace`` /
``repro bench`` CLIs; ``make_stack(kind, telemetry=True)`` attaches the
streaming collector as ``stack.telemetry`` and
``make_stack(kind, recorder=True)`` the flight recorder as
``stack.recorder``.
"""

from .bench import (
    SUITES,
    WORKLOADS,
    compare,
    format_compare,
    format_compare_json,
    load_bench,
    run_case,
    run_suite,
    write_bench,
)
from .dashboard import render_dashboard, render_html, write_html
from .explain import (
    FlightRecorder,
    explain_runs,
    format_explain,
    format_explain_json,
    op_drift,
    render_explain_html,
    render_timeline_diff,
    run_side,
    side_from_bench,
    write_explain_html,
)
from .telemetry import (
    Heartbeat,
    SeriesRollup,
    Telemetry,
    TelemetryFinding,
    merge_rollups,
    merge_snapshots,
)
from .export import (
    chrome_trace,
    format_op_summary,
    op_summary,
    packet_trace_lines,
    render_span_tree,
    write_chrome_trace,
    write_packet_trace,
)
from .profile import (
    LayerStat,
    PathSegment,
    Profile,
    format_attribution,
    format_critical_path,
    format_resource_report,
    resource_report,
)
from .proxy import SYSCALL_NAMES, TracedClient
from .tracer import (
    NULL_TRACER,
    CounterSample,
    LatencyHistogram,
    MessageEvent,
    NullTracer,
    PointEvent,
    Span,
    Tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "PointEvent",
    "MessageEvent",
    "CounterSample",
    "LatencyHistogram",
    "TracedClient",
    "SYSCALL_NAMES",
    "chrome_trace",
    "write_chrome_trace",
    "packet_trace_lines",
    "write_packet_trace",
    "op_summary",
    "format_op_summary",
    "render_span_tree",
    "render_timeline_diff",
    "Profile",
    "PathSegment",
    "LayerStat",
    "format_attribution",
    "format_critical_path",
    "resource_report",
    "format_resource_report",
    "SUITES",
    "WORKLOADS",
    "run_case",
    "run_suite",
    "write_bench",
    "load_bench",
    "compare",
    "format_compare",
    "format_compare_json",
    "FlightRecorder",
    "op_drift",
    "run_side",
    "side_from_bench",
    "explain_runs",
    "format_explain",
    "format_explain_json",
    "render_explain_html",
    "write_explain_html",
    "Telemetry",
    "TelemetryFinding",
    "SeriesRollup",
    "Heartbeat",
    "merge_rollups",
    "merge_snapshots",
    "render_dashboard",
    "render_html",
    "write_html",
]
