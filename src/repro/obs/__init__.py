"""Observability: structured tracing, mergeable run metrics, reports.

The execution stack (sweep executor, campaign runner, result stores)
runs 10^4-patient fleets across process pools -- and, until this
package, ran them blind: no logging, no per-unit timing, no cache
hit/miss accounting, no record of which backend a run actually
resolved.  This package is the runtime's eyes:

* :mod:`repro.obs.log` -- the stack's :mod:`logging` surface
  (``REPRO_LOG`` / ``--log-level``) plus the byte-stable stdout
  console channel the CLI's diagnostics route through;
* :mod:`repro.obs.metrics` -- lightweight *mergeable* counter/timing
  accumulators (the same order-invariant reduction shape as
  :mod:`repro.fleet.metrics`): instrumented code records into a
  process-local accumulator, workers ship per-unit deltas back through
  the normal result path, and merges reproduce one serial pass's
  totals regardless of worker count or arrival order;
* :mod:`repro.obs.trace` -- :class:`Tracer`, the span-based JSONL
  emitter: one run manifest (scenario hash, seed, resolved cache
  backend, worker count, versions) plus one span per work unit
  (queue -> execute -> flush timings, cache hit/miss, worker pid,
  payload bytes) written to
  ``<cache>/runs/<run_id>/trace.jsonl``;
* :mod:`repro.obs.report` -- the ``python -m repro report`` analysis:
  per-stage latency percentiles, cache hit rate, worker utilization,
  bytes moved, slowest units;
* :mod:`repro.obs.progress` -- live progress snapshots: runners,
  pool sweeps, and distributed workers publish periodic
  units-done/throughput/ETA state through the result store
  (best-effort, throttled, default-on via ``REPRO_PROGRESS``);
* :mod:`repro.obs.top` -- the ``python -m repro top`` live view over
  those snapshots plus the queue/lease tables, flagging stalled
  leases and idle workers;
* :mod:`repro.obs.export` -- Prometheus text-format exposition of the
  same state (``repro export-metrics``: one-shot file or stdlib HTTP
  endpoint);
* :mod:`repro.obs.history` -- the cross-run index
  (``<cache>/runs/history.jsonl``) every traced run auto-records
  into, behind ``repro history`` and the regression-flagging
  ``repro diff``.

Hard invariant: observability never enters cache keys, RNG seeds, or
golden verdicts.  A traced run is bit-identical to an untraced one,
and so is a progress-publishing run relative to a silent one --
observing only measures the same numbers appearing (enforced by
``tests/test_obs_trace.py`` and ``tests/test_obs_progress.py``).
"""

from repro.obs.log import (
    LOG_ENV,
    configure_logging,
    console,
    get_logger,
    resolve_log_level,
)
from repro.obs.metrics import (
    ObsAccumulator,
    Timing,
    counter_inc,
    observed_call,
    take_global,
    timed,
    timing_observe,
)
from repro.obs.export import (
    collect_metrics,
    render_exposition,
    serve_metrics,
    validate_exposition,
)
from repro.obs.history import (
    HISTORY_FILENAME,
    HISTORY_SCHEMA_VERSION,
    diff_runs,
    find_entry,
    history_path,
    load_history,
    record_run,
)
from repro.obs.progress import (
    PROGRESS_ENV,
    ProgressPublisher,
    read_progress,
    resolve_progress,
)
from repro.obs.report import find_runs, load_trace, summarize_run
from repro.obs.top import render_status, scenario_status
from repro.obs.trace import (
    TRACE_ENV,
    TRACE_SCHEMA_VERSION,
    Tracer,
    resolve_tracing,
    runs_root,
)

__all__ = [
    "HISTORY_FILENAME",
    "HISTORY_SCHEMA_VERSION",
    "LOG_ENV",
    "ObsAccumulator",
    "PROGRESS_ENV",
    "ProgressPublisher",
    "TRACE_ENV",
    "TRACE_SCHEMA_VERSION",
    "Timing",
    "Tracer",
    "collect_metrics",
    "configure_logging",
    "console",
    "counter_inc",
    "diff_runs",
    "find_entry",
    "find_runs",
    "get_logger",
    "history_path",
    "load_history",
    "load_trace",
    "observed_call",
    "read_progress",
    "record_run",
    "render_exposition",
    "render_status",
    "resolve_log_level",
    "resolve_progress",
    "resolve_tracing",
    "runs_root",
    "scenario_status",
    "serve_metrics",
    "summarize_run",
    "take_global",
    "timed",
    "timing_observe",
    "validate_exposition",
]
