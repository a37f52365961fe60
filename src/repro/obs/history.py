"""Cross-run history: a persistent index of every traced campaign run.

Traces answer "what happened inside *this* run"; they say nothing
about whether this run was slower than last Tuesday's.  This module
keeps that longitudinal record: every traced run is reduced (via
:func:`repro.obs.report.summarize_run`) to a compact one-line JSON
entry -- stage-latency percentiles, cache hit rate, throughput, wall
seconds -- and appended to ``<cache>/runs/history.jsonl``.

The index is append-only JSONL for the same reasons the trace is:
appends are atomic enough on POSIX for concurrent writers (workers and
coordinator may finish near-simultaneously), torn tails are skipped on
read, and the file greps.  Re-recording a run appends a fresh entry;
readers dedup by ``run_id`` keeping the last, so a re-record after a
longer trace (more spans flushed) simply supersedes the first.

:class:`~repro.obs.trace.Tracer` auto-records at :meth:`finish` --
best-effort, never raising into the run -- so ``repro history`` works
without anyone remembering a separate bookkeeping step.  ``repro
diff`` then compares any two entries and flags regressions beyond a
relative threshold: slower stage percentiles, lower throughput, a
colder cache.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from pathlib import Path

from repro.obs.log import get_logger
from repro.obs.report import load_trace, summarize_run
from repro.obs.trace import TRACE_FILENAME, runs_root

__all__ = [
    "HISTORY_FILENAME",
    "HISTORY_SCHEMA_VERSION",
    "diff_runs",
    "find_entry",
    "history_path",
    "load_history",
    "record_run",
]

#: The index file's name inside the cache's ``runs/`` directory.
HISTORY_FILENAME = "history.jsonl"

#: Bumped whenever an entry field changes meaning.
HISTORY_SCHEMA_VERSION = 1

#: Manifest fields worth carrying into the index (enough to explain a
#: regression without re-opening the trace: what ran, how parallel, on
#: which cache backend, at which revision).
_MANIFEST_FIELDS = (
    "role",
    "worker_id",
    "kind",
    "seed",
    "workers",
    "effective_workers",
    "cache_backend",
    "schema_version",
    "package_version",
    "git_revision",
)

#: Per-stage percentiles the diff compares (higher is worse).
_STAGE_METRICS = ("p50_s", "p90_s")

_log = get_logger("history")


def history_path(cache_root: Path | str) -> Path:
    """Where a cache root keeps its run-history index."""
    return runs_root(cache_root) / HISTORY_FILENAME


def _entry_from_summary(report: dict, manifest: dict) -> dict:
    summary = report.get("summary") or {}
    cache = report.get("cache") or {}
    workers = report.get("workers") or {}
    total = int(cache.get("total") or 0)
    wall_s = summary.get("wall_s")
    throughput = None
    if wall_s and float(wall_s) > 0 and total:
        throughput = total / float(wall_s)
    stages = {
        stage: {
            key: stats.get(key)
            for key in ("count", "total_s", "p50_s", "p90_s")
        }
        for stage, stats in (report.get("stages") or {}).items()
    }
    entry = {
        "history_schema": HISTORY_SCHEMA_VERSION,
        "run_id": report.get("run_id"),
        "scenario": report.get("scenario"),
        "scenario_hash": report.get("scenario_hash"),
        "started_at": manifest.get("started_at"),
        "recorded_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "manifest": {
            key: manifest[key]
            for key in _MANIFEST_FIELDS
            if manifest.get(key) is not None
        },
        "summary": {
            "wall_s": wall_s,
            "interrupted": bool(summary.get("interrupted", False)),
            "units": total,
            "hits": cache.get("hits"),
            "computed": cache.get("computed"),
            "cache_hit_rate": cache.get("hit_rate"),
            "throughput_units_per_s": throughput,
            "utilization": workers.get("utilization"),
            "stages": stages,
        },
    }
    return entry


def record_run(cache_root: Path | str, run_dir: Path | str) -> dict | None:
    """Summarize one run directory and append it to the history index.

    Returns the recorded entry, or None when the run directory has no
    readable trace manifest (nothing to index).  Appending is a single
    ``write`` of one line, so concurrent recorders interleave whole
    entries rather than corrupting each other.
    """
    trace = Path(run_dir) / TRACE_FILENAME
    try:
        manifest, events = load_trace(trace)
    except (OSError, ValueError):
        return None
    entry = _entry_from_summary(
        summarize_run(manifest, events, slowest=0), manifest
    )
    path = history_path(cache_root)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
    return entry


def load_history(
    cache_root: Path | str, scenario: str | None = None
) -> list[dict]:
    """Every indexed run, oldest first; ``scenario`` filters by name.

    Duplicate ``run_id`` entries collapse to the last one written (a
    re-record supersedes), and unreadable lines -- torn tails from a
    recorder killed mid-append -- are skipped, never fatal.
    """
    path = history_path(cache_root)
    if not path.is_file():
        return []
    by_run: dict[str, dict] = {}
    order: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if not isinstance(entry, dict) or not entry.get("run_id"):
                continue
            if scenario is not None and entry.get("scenario") != scenario:
                continue
            run_id = str(entry["run_id"])
            if run_id not in by_run:
                order.append(run_id)
            by_run[run_id] = entry
    entries = [by_run[run_id] for run_id in order]
    entries.sort(
        key=lambda e: (e.get("started_at") or "", e.get("run_id") or "")
    )
    return entries


def find_entry(cache_root: Path | str, run_id: str) -> dict | None:
    """The indexed entry for one run id, or None if never recorded."""
    for entry in load_history(cache_root):
        if entry.get("run_id") == run_id:
            return entry
    return None


def _metric_rows(entry: dict) -> list[tuple[str, float | None, bool]]:
    """(name, value, higher_is_worse) rows the diff compares."""
    summary = entry.get("summary") or {}
    rows: list[tuple[str, float | None, bool]] = [
        ("wall_s", summary.get("wall_s"), True),
        (
            "throughput_units_per_s",
            summary.get("throughput_units_per_s"),
            False,
        ),
        ("cache_hit_rate", summary.get("cache_hit_rate"), False),
    ]
    for stage, stats in sorted((summary.get("stages") or {}).items()):
        for key in _STAGE_METRICS:
            rows.append((f"{stage}.{key}", stats.get(key), True))
    return rows


def diff_runs(
    baseline: dict, candidate: dict, threshold: float = 0.10
) -> dict:
    """Compare two history entries; flag regressions beyond ``threshold``.

    ``threshold`` is relative: a higher-is-worse metric regresses when
    the candidate exceeds the baseline by more than ``threshold``
    (e.g. 0.10 = 10% slower), a lower-is-worse metric when it falls
    short by more.  Metrics missing from either entry, or with a zero
    baseline, compare informationally (``ratio`` None, never flagged):
    an absent stage is a shape difference, not a measured slowdown.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    base_rows = dict(
        (name, (value, worse)) for name, value, worse in _metric_rows(baseline)
    )
    cand_rows = dict(
        (name, (value, worse))
        for name, value, worse in _metric_rows(candidate)
    )
    metrics: list[dict] = []
    regressions: list[str] = []
    for name in sorted(set(base_rows) | set(cand_rows)):
        base_val, higher_worse = base_rows.get(
            name, (None, cand_rows.get(name, (None, True))[1])
        )
        cand_val = cand_rows.get(name, (None, higher_worse))[0]
        ratio = None
        regressed = False
        if (
            base_val is not None
            and cand_val is not None
            and float(base_val) > 0
        ):
            ratio = float(cand_val) / float(base_val)
            if higher_worse:
                regressed = ratio > 1.0 + threshold
            else:
                regressed = ratio < 1.0 - threshold
        metrics.append(
            {
                "name": name,
                "baseline": base_val,
                "candidate": cand_val,
                "ratio": ratio,
                "higher_is_worse": higher_worse,
                "regressed": regressed,
            }
        )
        if regressed:
            regressions.append(name)
    return {
        "baseline": baseline.get("run_id"),
        "candidate": candidate.get("run_id"),
        "threshold": threshold,
        "metrics": metrics,
        "regressions": regressions,
    }
