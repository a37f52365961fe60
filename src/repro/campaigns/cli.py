"""The ``python -m repro`` command-line interface.

Twelve subcommands operate the campaign subsystem::

    python -m repro list                         # what can be run
    python -m repro run attack-success-shielded  # run (resumes from cache)
    python -m repro status attack-success-shielded
    python -m repro compare attack-success-unshielded attack-success-shielded
    python -m repro validate                     # golden-figure check
    python -m repro cache stats                  # cache usage / cleanup
    python -m repro report attack-success-shielded  # trace diagnostics
    python -m repro worker fleet-attack-prevalence  # drain the work queue
    python -m repro top fleet-attack-prevalence     # live campaign view
    python -m repro export-metrics fleet-attack-prevalence  # Prometheus
    python -m repro history fleet-attack-prevalence # recorded runs
    python -m repro diff <run-a> <run-b>            # regression check

``run --distributed`` plans a campaign into the SQLite cache's work
queue and waits while ``worker`` processes -- any number, on any
machine sharing the cache root -- claim, evaluate, and persist units
under expiring leases; the reduced numbers are bit-identical to a
serial run (see docs/distributed.md).

``run``, ``compare``, and ``validate`` emit text (default), markdown,
or JSON via :class:`repro.experiments.report.ExperimentReport`, so
figures drop straight into terminals, PR descriptions, or downstream
tooling.

``validate`` judges scenarios against the registry's golden-figure
expectation table (see docs/validation.md) and exits non-zero when a
paper claim is refuted -- with ``--adaptive`` it lets the
:class:`~repro.stats.adaptive.AdaptiveScheduler` choose trial counts to
hit a stated precision instead of running the fixed budget.

Killing a ``run`` (or ``validate``) mid-campaign is safe: completed
work units are already on disk, and the next invocation completes from
cache with bit-identical final numbers (same seeds) to an uninterrupted
run.

``run`` and ``compare`` accept ``--trace`` (or ``REPRO_TRACE=1``):
the run writes a structured JSONL trace -- manifest plus one span per
work unit -- to ``<cache>/runs/<run_id>/trace.jsonl``, which ``report``
reduces to per-stage latency percentiles, cache hit rate, worker
utilization, and the slowest units.  Tracing never changes results or
cache contents (see docs/observability.md).

Live observability rides the same cache root: runners and workers
publish throttled progress snapshots (default on; ``--no-progress`` or
``REPRO_PROGRESS=0`` silences them), ``top`` renders them alongside
queue depth and stalled leases, ``export-metrics`` exposes the same
state in Prometheus text format, and every traced run auto-records
into ``<cache>/runs/history.jsonl`` for ``history`` and the
regression-flagging ``diff``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.campaigns import registry
from repro.campaigns.cache import default_cache_dir
from repro.campaigns.store import (
    BACKENDS,
    CACHE_BACKEND_ENV,
    SQLiteStore,
    make_store,
    resolve_backend,
)
from repro.campaigns.runner import CampaignResult, CampaignRunner
from repro.campaigns.spec import Scenario
from repro.experiments.metrics import success_probability
from repro.experiments.report import ExperimentReport
from repro.obs.log import (
    LOG_LEVELS,
    configure_logging,
    console,
    get_logger,
)
from repro.obs.report import find_runs, load_trace, summarize_run
from repro.obs.trace import Tracer, resolve_tracing, runs_root
from repro.stats.adaptive import AdaptivePolicy
from repro.stats.validation import (
    ScenarioValidation,
    ValidationReport,
    validate_scenario,
)

__all__ = ["main"]

_log = get_logger("cli")

#: ``validate --budget`` presets: fixed trials per grid point (None =
#: the scenario's registered budget) and whether to shrink the grid to
#: three representative cells (first / middle / last).
_BUDGETS = {
    "smoke": {"n_trials": 4, "shrink_grid": True},
    "default": {"n_trials": None, "shrink_grid": False},
    "full": {"n_trials": 100, "shrink_grid": False},
}


def _resolve(name: str) -> Scenario:
    try:
        return registry.get(name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None


def _parse_locations(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise SystemExit(
            f"error: --locations must be comma-separated integers, got {raw!r}"
        ) from None


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    changes: dict = {}
    if args.trials is not None:
        changes["n_trials"] = args.trials
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.chunk_size is not None:
        changes["chunk_size"] = args.chunk_size
    if args.locations is not None:
        changes["location_indices"] = _parse_locations(args.locations)
    if getattr(args, "patients", None) is not None:
        changes["n_patients"] = args.patients
    if not changes:
        return scenario
    try:
        return scenario.override(**changes)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _runner(scenario: Scenario, args: argparse.Namespace) -> CampaignRunner:
    try:
        tracer = None
        if resolve_tracing(getattr(args, "trace", None)):
            root = Path(
                args.cache_dir
                if args.cache_dir is not None
                else default_cache_dir()
            )
            tracer = Tracer(root, scenario.name)
        return CampaignRunner(
            scenario,
            cache_dir=args.cache_dir,
            workers=args.workers,
            persist=not args.no_cache,
            cache_backend=args.cache_backend,
            profile=getattr(args, "profile", False),
            tracer=tracer,
            progress=getattr(args, "progress", None),
        )
    except ValueError as exc:  # e.g. --workers -1, junk REPRO_TRACE
        raise SystemExit(f"error: {exc}") from None


def _result_report(result: CampaignResult) -> ExperimentReport:
    scenario = result.scenario
    title = scenario.title or scenario.name
    if scenario.kind == "attack":
        report = ExperimentReport(
            title, headers=("location", "success", "alarm", "95% CI")
        )
        for point in result.points:
            _, low, high = success_probability(point["wins"], point["n_trials"])
            report.add(
                point["label"],
                f"{point['success_probability']:.2f}",
                f"{point['alarm_probability']:.2f}",
                f"[{low:.2f}, {high:.2f}]",
            )
    elif scenario.kind == "passive_ber":
        report = ExperimentReport(
            title, headers=("location", "eavesdropper BER", "packets", "note")
        )
        for point in result.points:
            note = "~coin flips" if point["ber"] > 0.4 else ""
            report.add(
                point["label"], f"{point['ber']:.3f}", str(point["n_packets"]), note
            )
    elif scenario.kind == "physio":
        report = ExperimentReport(
            title,
            headers=("location", "HR error / vs chance", "rhythm acc", "note"),
        )
        for point in result.points:
            if point["hr_abs_error"] < 2.0:
                note = "heart rate leaks"
            elif abs(point["hr_error_vs_chance"]) < 10.0:
                note = "~chance"
            else:
                note = ""
            report.add(
                point["label"],
                f"{point['hr_abs_error']:.1f} bpm / "
                f"{point['hr_error_vs_chance']:+.1f}",
                f"{point['rhythm_accuracy']:.2f}",
                note,
            )
    elif scenario.kind == "fleet":
        report = ExperimentReport(
            title, headers=("population", "metric", "value", "note")
        )
        point = result.points[0]
        report.add(
            point["label"],
            "shield adherence",
            f"{point.get('shield_worn_fraction', 0.0):.0%}",
            "",
        )
        if scenario.fleet_task == "attack":
            report.add(
                point["label"],
                "attack prevalence",
                f"{point['attack_prevalence']:.3f}",
                f"{point['patients_compromised']} patient(s) compromised",
            )
            report.add(
                point["label"],
                "alarms / patient-day",
                f"{point['alarm_rate_per_day']:.3f}",
                f"{point['alarms_total']} alarm(s) total",
            )
        else:
            report.add(
                point["label"],
                "HR leak median / p10 / p90",
                f"{point['hr_leak_median_bpm']:.1f} / "
                f"{point['hr_leak_p10_bpm']:.1f} / "
                f"{point['hr_leak_p90_bpm']:.1f} bpm",
                "p10 = the unshielded tail",
            )
            strata = point["ber_strata"]
            report.add(
                point["label"],
                "BER strata",
                " / ".join(f"{k} {v}" for k, v in strata.items()),
                f"mean BER {point['mean_ber']:.2f}",
            )
    else:
        report = ExperimentReport(
            title, headers=("separation", "BER", "jam rejection", "attempts")
        )
        for point in result.points:
            report.add(
                point["label"],
                f"{point['ber']:.3f}",
                f"{point['jam_rejection_db']:.1f} dB",
                str(point["n_packets"]),
            )
    return report


def _emit(report: ExperimentReport, payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "markdown":
        print(report.render_markdown())
    else:
        print(report.render())


def _budget_scenario(scenario: Scenario, budget: str) -> Scenario:
    """Apply a ``validate --budget`` preset to a registered scenario."""
    preset = _BUDGETS[budget]
    changes: dict = {}
    if scenario.kind == "fleet":
        # Fleet budgets scale the cohort, not trials-per-patient: 100
        # encounters per patient would buy precision on the wrong axis
        # (population statistics converge in patients).
        if budget == "smoke":
            changes = {
                "n_patients": min(scenario.n_patients, 30),
                "n_trials": min(scenario.n_trials, 2),
            }
        elif budget == "full":
            changes = {"n_patients": scenario.n_patients * 4}
        return scenario.override(**changes) if changes else scenario
    if preset["n_trials"] is not None:
        changes["n_trials"] = preset["n_trials"]
    if preset["shrink_grid"]:
        axes = scenario.axis_values()
        picks = sorted({0, len(axes) // 2, len(axes) - 1})
        subset = tuple(axes[i] for i in picks)
        if scenario.kind == "mimo":
            changes["separations_m"] = subset
        else:
            changes["location_indices"] = subset
    if not changes:
        return scenario
    return scenario.override(**changes)


def _validation_report(validation: ScenarioValidation) -> ExperimentReport:
    """One scenario's expectation verdicts as a renderable table."""
    scenario = validation.scenario
    mode = "adaptive" if validation.adaptive else "fixed"
    report = ExperimentReport(
        f"{scenario.name} [{mode}] -- {validation.verdict.upper()}",
        headers=("expectation", "verdict", "measured", "note"),
    )
    for outcome in validation.outcomes:
        judged = [c for c in outcome.cells if c.n > 0]
        if judged:
            estimates = [c.estimate for c in judged]
            ns = [c.n for c in judged]
            measured = f"{min(estimates):.3f}..{max(estimates):.3f}"
            measured += (
                f" (n={min(ns)})" if min(ns) == max(ns)
                else f" (n={min(ns)}-{max(ns)})"
            )
        else:
            measured = "(no cells)"
        verdict = outcome.verdict.upper()
        if outcome.confirmed:
            verdict += "*"
        note = outcome.expectation.note
        if outcome.skipped_axes:
            skipped = ", ".join(str(a) for a in outcome.skipped_axes)
            note = f"[skipped axes: {skipped}] {note}"
        report.add(outcome.expectation.describe(), verdict, measured, note)
    return report


def _validation_footer(validation: ScenarioValidation) -> str:
    parts = [
        f"trials: {validation.trials_used}",
    ]
    if validation.adaptive:
        parts.append(f"fixed budget would be {validation.fixed_trials}")
        parts.append(f"rounds: {validation.rounds}")
        if not validation.converged:
            parts.append("some cells hit max-trials before converging")
    parts.append(
        f"units: {validation.computed_units} computed, "
        f"{validation.cached_units} from cache"
    )
    return " -- ".join(parts)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = registry.all_scenarios()
    if args.json:
        print(json.dumps(
            [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "title": s.title,
                    "grid": s.grid_size(),
                    "n_trials": s.n_trials,
                    "tags": list(s.tags),
                    "hash": s.scenario_hash(),
                }
                for s in scenarios
            ],
            indent=2,
        ))
        return 0
    report = ExperimentReport(
        "registered scenarios", headers=("name", "kind", "grid", "summary")
    )
    for s in scenarios:
        report.add(s.name, s.kind, f"{s.grid_size()} pts", s.summary())
    print(report.render())
    print("\nrun one with:  python -m repro run <name>")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(_resolve(args.scenario), args)
    if args.distributed:
        if args.no_cache:
            raise SystemExit(
                "error: --distributed needs the shared cache "
                "(drop --no-cache)"
            )
        if args.force:
            raise SystemExit(
                "error: --force is not supported with --distributed; "
                "prune the scenario's cache namespace instead "
                "(python -m repro cache prune --scenario ...)"
            )
        if args.profile:
            raise SystemExit(
                "error: --profile profiles in-process evaluation; "
                "with --distributed the units run in worker processes "
                "(profile a worker run instead)"
            )
        if args.workers is not None:
            _log.warning(
                "--workers is ignored with --distributed: parallelism "
                "comes from how many `python -m repro worker` processes "
                "share the cache root"
            )
    runner = _runner(scenario, args)
    if args.distributed:
        try:
            result = runner.run_distributed(
                wait_timeout_s=args.wait_timeout
            )
        except (ValueError, RuntimeError) as exc:
            raise SystemExit(f"error: {exc}") from None
    else:
        result = runner.run(force=args.force)
    _emit(_result_report(result), result.to_payload(), args.format)
    if args.format != "json":
        where = "in memory" if args.no_cache else f"cache {runner.cache.root}"
        console(
            f"\nunits: {result.total_units} total, "
            f"{result.cached_units} from cache, "
            f"{result.computed_units} computed ({where})"
        )
        if runner.profile_path is not None:
            console(f"profile: {runner.profile_path}")
        elif args.profile:
            console("profile: nothing to profile (every unit was cached)")
        if runner.tracer is not None:
            console(
                f"trace: {runner.tracer.path} "
                f"(inspect with: python -m repro report {scenario.name})"
            )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.campaigns.worker import (
        HeartbeatError,
        default_worker_id,
        run_worker,
    )

    scenario = _apply_overrides(_resolve(args.scenario), args)
    worker_id = args.worker_id or default_worker_id()
    tracer = None
    try:
        if resolve_tracing(getattr(args, "trace", None)):
            root = Path(
                args.cache_dir
                if args.cache_dir is not None
                else default_cache_dir()
            )
            tracer = Tracer(root, f"{scenario.name}-worker-{worker_id}")
        stats = run_worker(
            scenario,
            cache_dir=args.cache_dir,
            cache_backend=args.cache_backend,
            worker_id=worker_id,
            lease_s=args.lease,
            poll_s=args.poll,
            idle_timeout_s=(
                args.idle_timeout if args.idle_timeout > 0 else None
            ),
            max_units=args.max_units,
            tracer=tracer,
            progress=getattr(args, "progress", None),
        )
    except HeartbeatError as exc:
        # The shared store died under the heartbeat thread; the claim
        # was abandoned (best effort).  Exit distinctly so supervisors
        # can tell "store unreachable" (4) from "no work left" (3) and
        # a clean drain (0).
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # e.g. filesystem backend, junk REPRO_TRACE
        raise SystemExit(f"error: {exc}") from None
    console(
        f"worker {stats.worker_id}: {stats.claimed} claim(s), "
        f"{stats.computed} computed, {stats.reused} already cached, "
        f"{stats.lease_lost} lease(s) lost"
    )
    if tracer is not None:
        console(f"trace: {tracer.path}")
    if stats.idle_timeout:
        console(
            "exited on idle timeout with uncached units remaining "
            "(another worker may hold live leases)"
        )
        return 3
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(_resolve(args.scenario), args)
    try:
        runner = CampaignRunner(
            scenario,
            cache_dir=args.cache_dir,
            cache_backend=args.cache_backend,
        )
    except ValueError as exc:  # e.g. a bad REPRO_CACHE_BACKEND
        raise SystemExit(f"error: {exc}") from None
    status = runner.status()
    if args.json:
        print(json.dumps(status.__dict__, indent=2, sort_keys=True))
        return 0
    state = (
        "complete"
        if status.complete
        else f"{status.pending_units} unit(s) pending"
    )
    console(
        f"{status.scenario} [{status.scenario_hash}]: "
        f"{status.cached_units}/{status.total_units} units cached -- {state}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario_a = _apply_overrides(_resolve(args.scenario_a), args)
    scenario_b = _apply_overrides(_resolve(args.scenario_b), args)
    if scenario_a.kind != scenario_b.kind:
        raise SystemExit(
            f"error: cannot compare a {scenario_a.kind!r} scenario with a "
            f"{scenario_b.kind!r} one"
        )
    if (
        scenario_a.kind == "fleet"
        and scenario_a.fleet_task != scenario_b.fleet_task
    ):
        # Different tasks measure disjoint population metrics; failing
        # here beats running both cohorts and dying on the headline key.
        raise SystemExit(
            f"error: cannot compare a {scenario_a.fleet_task!r}-task fleet "
            f"scenario with a {scenario_b.fleet_task!r}-task one"
        )
    result_a = _runner(scenario_a, args).run()
    result_b = _runner(scenario_b, args).run()
    key = result_a.value_key
    axes_b = {p["axis"] for p in result_b.points}
    shared = [p["axis"] for p in result_a.points if p["axis"] in axes_b]
    if not shared:
        raise SystemExit("error: the scenarios share no grid points")

    report = ExperimentReport(
        f"{scenario_a.name} vs {scenario_b.name}",
        headers=("point", scenario_a.name, scenario_b.name, "delta"),
    )
    rows = []
    for axis in shared:
        point_a = result_a.point(axis)
        point_b = result_b.point(axis)
        delta = point_b[key] - point_a[key]
        report.add(
            point_a["label"],
            f"{point_a[key]:.3f}",
            f"{point_b[key]:.3f}",
            f"{delta:+.3f}",
        )
        rows.append({
            "axis": axis,
            "label": point_a["label"],
            scenario_a.name: point_a[key],
            scenario_b.name: point_b[key],
            "delta": delta,
        })
    payload = {
        "value_key": key,
        "a": result_a.to_payload(),
        "b": result_b.to_payload(),
        "comparison": rows,
    }
    _emit(report, payload, args.format)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    names = args.scenarios or registry.names_with_expectations()
    if not names:
        raise SystemExit("error: no scenarios have registered expectations")
    policy_fields: dict = {}
    if args.precision is not None:
        policy_fields["precision"] = args.precision
    if args.confidence is not None:
        policy_fields["confidence"] = args.confidence
    if args.interval is not None:
        policy_fields["method"] = args.interval
    if args.round_size is not None:
        policy_fields["round_size"] = args.round_size
    if args.min_trials is not None:
        policy_fields["min_trials"] = args.min_trials
    if args.max_trials is not None:
        policy_fields["max_trials"] = args.max_trials
    try:
        policy = AdaptivePolicy(**policy_fields)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    try:
        if resolve_tracing(getattr(args, "trace", None)):
            _log.warning(
                "tracing covers the run and compare verbs only; "
                "validate runs untraced"
            )
    except ValueError as exc:  # junk REPRO_TRACE
        raise SystemExit(f"error: {exc}") from None

    report = ValidationReport(strict=args.strict)
    for name in names:
        scenario = _budget_scenario(_resolve(name), args.budget)
        expectations = registry.expectations_for(name)
        if not expectations:
            raise SystemExit(
                f"error: scenario {name!r} has no registered expectations"
            )
        try:
            validation = validate_scenario(
                scenario,
                expectations,
                adaptive=args.adaptive,
                policy=policy,
                cache_dir=args.cache_dir,
                workers=args.workers,
                persist=not args.no_cache,
                confidence=args.confidence,
                cache_backend=args.cache_backend,
            )
        except ValueError as exc:  # e.g. bad --workers
            raise SystemExit(f"error: {exc}") from None
        report.scenarios.append(validation)

    if args.format == "json":
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        render = (
            (lambda r: r.render_markdown())
            if args.format == "markdown"
            else (lambda r: r.render())
        )
        for validation in report.scenarios:
            print(render(_validation_report(validation)))
            print(_validation_footer(validation))
            print()
        print(report.summary())
        if not report.passed and report.verdict != "fail":
            print("(inconclusive under --strict: more trials would settle it)")
    return 0 if report.passed else 1


def _cache_stores(args: argparse.Namespace) -> list:
    """The stores a ``cache`` verb operates on.

    An explicit selection (``--cache-backend`` or
    ``REPRO_CACHE_BACKEND``) names one store.  With no selection the
    verb covers *every* layout living in the root -- both backends can
    share one cache directory, and "stats" or "prune --all" that
    silently skipped the other layout's (possibly large) data would
    misreport what is actually on disk.
    """
    root = Path(
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    selected = (
        args.cache_backend is not None
        or os.environ.get(CACHE_BACKEND_ENV, "").strip()
    )
    try:
        if selected:
            # resolve_backend owns the flag -> env -> default policy.
            return [make_store(root, resolve_backend(args.cache_backend))]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    stores = [make_store(root, "filesystem")]
    if (root / SQLiteStore.FILENAME).exists():
        stores.append(make_store(root, "sqlite"))
    return stores


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    all_stats = [store.stats() for store in _cache_stores(args)]
    entries = sum(s.entries for s in all_stats)
    n_bytes = sum(s.bytes for s in all_stats)
    if args.json:
        print(json.dumps(
            {
                "entries": entries,
                "bytes": n_bytes,
                "scenarios": [
                    {
                        "hash": s.scenario_hash,
                        "name": s.name,
                        "backend": stats.backend,
                        "entries": s.entries,
                        "bytes": s.bytes,
                    }
                    for stats in all_stats
                    for s in stats.scenarios
                ],
                "stores": [
                    {
                        "backend": stats.backend,
                        "location": stats.location,
                        "entries": stats.entries,
                        "bytes": stats.bytes,
                    }
                    for stats in all_stats
                ],
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    locations = ", ".join(
        f"{stats.location} [{stats.backend}]" for stats in all_stats
    )
    report = ExperimentReport(
        f"cache at {locations}",
        headers=("scenario", "hash", "entries", "size"),
    )
    namespaces = 0
    for stats in all_stats:
        # The backend tag only matters when the root holds both layouts.
        tag = f" [{stats.backend}]" if len(all_stats) > 1 else ""
        for s in stats.scenarios:
            namespaces += 1
            report.add(
                s.name or "(no manifest)",
                f"{s.scenario_hash}{tag}",
                str(s.entries),
                _human_bytes(s.bytes),
            )
    print(report.render())
    console(
        f"\ntotal: {entries} unit(s), {_human_bytes(n_bytes)} "
        f"across {namespaces} scenario namespace(s)"
    )
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    if bool(args.scenario) == bool(args.all):
        raise SystemExit(
            "error: pass exactly one of --scenario NAME or --all"
        )
    stores = _cache_stores(args)
    if args.all:
        removed = sum(store.prune() for store in stores)
        console(f"pruned {removed} unit(s) (everything)")
        return 0
    # A name may own several namespaces (overridden trials, seeds, old
    # schema versions) in either layout; prune every namespace whose
    # manifest carries it.  Resolution reads only the manifests --
    # never the unit entries, which at fleet counts would turn a name
    # lookup into a full metadata sweep.
    removed = 0
    namespaces = 0
    known: set[str] = set()
    for store in stores:
        names = store.namespace_names()
        known.update(name for name in names.values() if name)
        matches = [
            scenario_hash
            for scenario_hash, name in names.items()
            if name == args.scenario
        ]
        if matches:
            removed += store.prune(matches)
            namespaces += len(matches)
    if not namespaces:
        raise SystemExit(
            f"error: no cached namespace is named {args.scenario!r}; "
            f"cached scenarios: {', '.join(sorted(known)) or '(none)'}"
        )
    console(
        f"pruned {removed} unit(s) from {namespaces} namespace(s) "
        f"of {args.scenario!r}"
    )
    return 0


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1.0:
        return f"{seconds * 1000:.1f} ms"
    return f"{seconds:.2f} s"


def _report_table(summary: dict) -> ExperimentReport:
    """One traced run's diagnostics as a renderable table."""
    report = ExperimentReport(
        f"{summary['scenario']} -- run {summary['run_id']}",
        headers=("metric", "value", "detail", "note"),
    )
    cache = summary["cache"]
    rate = cache["hit_rate"]
    report.add(
        "cache hit rate",
        "n/a" if rate is None else f"{rate:.0%}",
        f"{cache['hits']} hit / {cache['computed']} computed",
        f"{cache['total']} unit span(s)",
    )
    for stage, stats in summary["stages"].items():
        report.add(
            f"{stage} latency",
            f"p50 {_fmt_seconds(stats['p50_s'])}",
            f"p90 {_fmt_seconds(stats['p90_s'])} / "
            f"p99 {_fmt_seconds(stats['p99_s'])}",
            f"{stats['count']} unit(s), total {_fmt_seconds(stats['total_s'])}",
        )
    workers = summary["workers"]
    utilization = workers["utilization"]
    wall = workers["execute_wall_s"]
    report.add(
        "worker utilization",
        "n/a" if utilization is None else f"{utilization:.0%}",
        f"{len(workers['observed_pids'])} pid(s) observed, "
        f"{workers['effective']} effective",
        ""
        if wall is None
        else f"busy {_fmt_seconds(workers['busy_s'])} "
        f"/ wall {_fmt_seconds(wall)}",
    )
    per_worker = workers.get("per_worker") or {}
    if len(per_worker) > 1:
        # A distributed (or pooled) run: show how the units actually
        # spread across the fleet.
        for label in sorted(per_worker):
            stats = per_worker[label]
            report.add(
                f"worker {label}",
                f"{stats['units']} unit(s)",
                f"busy {_fmt_seconds(stats['busy_s'])}",
                "",
            )
    report.add(
        "result bytes",
        _human_bytes(summary["bytes"]["results"]),
        "computed-unit payloads",
        "",
    )
    for entry in summary["slowest"]:
        coords = entry["coords"] or {}
        detail = ", ".join(
            f"{key}={value}" for key, value in coords.items() if key != "kind"
        )
        report.add(
            "slowest unit",
            _fmt_seconds(entry["exec_s"]),
            detail or str(entry["key"]),
            f"pid {entry['pid']}",
        )
    return report


def _cmd_report(args: argparse.Namespace) -> int:
    root = Path(
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    runs = find_runs(root, scenario=args.scenario)
    if not runs:
        what = f"of {args.scenario!r} " if args.scenario else ""
        raise SystemExit(
            f"error: no traced runs {what}under "
            f"{runs_root(root)}; run with --trace (or REPRO_TRACE=1) first"
        )
    if args.list_runs:
        if args.format == "json":
            print(json.dumps(
                [
                    {
                        "run_id": r.run_id,
                        "scenario": r.manifest.get("scenario"),
                        "role": r.manifest.get("role", "runner"),
                        "started_at": r.manifest.get("started_at"),
                    }
                    for r in runs
                ],
                indent=2,
                sort_keys=True,
            ))
            return 0
        title = "traced runs" + (
            f" of {args.scenario}" if args.scenario else ""
        )
        listing = ExperimentReport(
            title, headers=("run id", "scenario", "role", "started")
        )
        for r in runs:
            listing.add(
                r.run_id,
                str(r.manifest.get("scenario") or "?"),
                str(r.manifest.get("role") or "runner"),
                str(r.manifest.get("started_at") or "?"),
            )
        print(
            listing.render_markdown()
            if args.format == "markdown"
            else listing.render()
        )
        console("\nreport one with:  python -m repro report --run-id <id>")
        return 0
    if args.run_id is not None:
        matches = [r for r in runs if r.run_id == args.run_id]
        if not matches:
            known = ", ".join(r.run_id for r in runs[-5:])
            what = f" of {args.scenario!r}" if args.scenario else ""
            raise SystemExit(
                f"error: no traced run {args.run_id!r}{what}; "
                f"most recent: {known}"
            )
        info = matches[0]
    else:
        info = runs[-1]
    try:
        manifest, events = load_trace(info.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: unreadable trace {info.path}: {exc}") from None
    summary = summarize_run(manifest, events, slowest=args.slowest)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    report = _report_table(summary)
    print(
        report.render_markdown()
        if args.format == "markdown"
        else report.render()
    )
    backends = (
        f"workers={manifest.get('workers')} "
        f"cache={manifest.get('cache_backend')}"
    )
    console(
        f"\nmanifest: kind={manifest.get('kind')} "
        f"seed={manifest.get('seed')} {backends}"
    )
    if manifest.get("forced_serial"):
        console("note: --profile forced serial evaluation for this run")
    if summary["summary"] is None:
        console("note: no summary event -- the run was interrupted mid-trace")
    console(f"trace: {info.path}")
    return 0


def _watch_cache(args: argparse.Namespace):
    """The read-only cache the live verbs (top, export-metrics) poll."""
    from repro.campaigns.cache import ResultCache

    root = Path(
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    try:
        return ResultCache(root, backend=args.cache_backend)
    except ValueError as exc:  # e.g. a bad REPRO_CACHE_BACKEND
        raise SystemExit(f"error: {exc}") from None


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.top import render_status, scenario_status

    if args.interval <= 0:
        raise SystemExit(
            f"error: --interval must be positive, got {args.interval}"
        )
    if args.live is not None:
        return _top_live(args)
    if args.scenario is None:
        raise SystemExit("error: a scenario name is required without --live")
    scenario = _apply_overrides(_resolve(args.scenario), args)
    cache = _watch_cache(args)
    # A TTY gets an ANSI-refreshed screen; pipes and CI logs get one
    # plain block per poll, separated so the stream stays greppable.
    is_tty = sys.stdout.isatty()
    first = True
    while True:
        status = scenario_status(cache, scenario)
        if args.json:
            print(json.dumps(status, sort_keys=True), flush=True)
        else:
            if is_tty and not args.once:
                sys.stdout.write("\x1b[2J\x1b[H")
            elif not first:
                print("---")
            print("\n".join(render_status(status)), flush=True)
        first = False
        if args.once:
            return 0
        if status["complete"]:
            return 0
        _time.sleep(args.interval)


def _top_live(args: argparse.Namespace) -> int:
    """``repro top --live URL``: poll a running live engine's /status."""
    import time as _time
    import urllib.error
    import urllib.request

    from repro.obs.top import render_live_status

    base = args.live.rstrip("/")
    if not base.startswith("http"):
        base = "http://" + base
    url = base + "/status"
    is_tty = sys.stdout.isatty()
    first = True
    while True:
        try:
            with urllib.request.urlopen(url, timeout=5.0) as resp:
                snapshot = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise SystemExit(
                f"error: cannot poll live status at {url}: {exc}"
            ) from None
        if args.json:
            print(json.dumps(snapshot, sort_keys=True), flush=True)
        else:
            if is_tty and not args.once:
                sys.stdout.write("\x1b[2J\x1b[H")
            elif not first:
                print("---")
            print("\n".join(render_live_status(snapshot)), flush=True)
        first = False
        if args.once or snapshot.get("finished"):
            return 0
        _time.sleep(args.interval)


def _cmd_live(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live.alarms import AlarmPipeline, LogNotifier
    from repro.live.clock import AcceleratedClock, TestClock, WallClock
    from repro.live.engine import LiveConfig, LiveEngine
    from repro.live.events import EventLog
    from repro.live.serve import run_live
    from repro.obs.top import render_live_status

    try:
        config = LiveConfig(
            n_patients=args.patients,
            seed=args.seed,
            duration_s=args.duration,
            telemetry_interval_s=args.telemetry_interval,
            attack_bursts=args.bursts,
            burst_trials=args.burst_trials,
            attack_command=args.command,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.drain:
        clock = TestClock()
    elif args.speedup == 1.0:
        clock = WallClock()
    else:
        try:
            clock = AcceleratedClock(args.speedup)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None

    event_log = EventLog() if args.log_events else None
    pipeline = AlarmPipeline(notifiers=[LogNotifier()])
    engine = LiveEngine(
        config, clock=clock, pipeline=pipeline, event_log=event_log
    )

    if args.serve is not None:
        def on_started(server):
            console(
                f"live monitor on http://{server.host}:{server.port} "
                f"(/events /status /metrics /healthz; Ctrl-C to stop)"
            )
    else:
        on_started = None
    try:
        snapshot = asyncio.run(
            run_live(
                engine,
                serve=args.serve is not None,
                host=args.host,
                port=args.serve or 0,
                linger_s=args.linger,
                on_started=on_started,
            )
        )
    except OSError as exc:  # port taken, bad host
        raise SystemExit(f"error: cannot serve live stream: {exc}") from None

    if event_log is not None:
        path = event_log.write(args.log_events)
        console(
            f"wrote {len(event_log.lines)} event/alarm line(s) to {path} "
            f"(digest {event_log.digest()[:16]})"
        )
    for line in render_live_status(snapshot):
        console(line)
    return 0


def _cmd_export_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        collect_metrics,
        render_exposition,
        serve_metrics,
    )

    scenario = _apply_overrides(_resolve(args.scenario), args)
    cache = _watch_cache(args)
    if args.serve is not None:
        try:
            server = serve_metrics(
                cache, scenario, args.serve, host=args.host
            )
        except OSError as exc:  # port taken, bad host
            raise SystemExit(f"error: cannot serve metrics: {exc}") from None
        host, port = server.server_address[:2]
        console(
            f"serving Prometheus metrics on http://{host}:{port}/metrics "
            f"(Ctrl-C to stop)"
        )
        try:
            server.serve_forever()
        finally:
            server.server_close()
        return 0
    text = render_exposition(collect_metrics(cache, scenario))
    if args.output == "-":
        sys.stdout.write(text)
    else:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        series = sum(
            1 for line in text.splitlines() if not line.startswith("#")
        )
        console(f"wrote {series} metric sample(s) to {path}")
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.obs.history import history_path, load_history

    root = Path(
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    entries = load_history(root, scenario=args.scenario)
    if args.limit is not None and args.limit > 0:
        entries = entries[-args.limit:]
    if args.format == "json":
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        what = f"of {args.scenario!r} " if args.scenario else ""
        raise SystemExit(
            f"error: no recorded runs {what}in {history_path(root)}; "
            f"traced runs (--trace / REPRO_TRACE=1) record automatically"
        )
    title = "recorded runs" + (
        f" of {args.scenario}" if args.scenario else ""
    )
    report = ExperimentReport(
        title,
        headers=("run id", "started", "units", "timing"),
    )
    for entry in entries:
        summary = entry.get("summary") or {}
        hit_rate = summary.get("cache_hit_rate")
        wall = summary.get("wall_s")
        throughput = summary.get("throughput_units_per_s")
        units = (
            f"{summary.get('units', '?')}"
            + ("" if hit_rate is None else f" ({hit_rate:.0%} hit)")
        )
        timing = (
            ("n/a" if wall is None else f"wall {_fmt_seconds(float(wall))}")
            + ("" if throughput is None else f", {throughput:.2f} u/s")
            + (" *interrupted*" if summary.get("interrupted") else "")
        )
        report.add(
            str(entry.get("run_id")),
            str(entry.get("started_at") or "?"),
            units,
            timing,
        )
    print(
        report.render_markdown()
        if args.format == "markdown"
        else report.render()
    )
    console(
        "\ndiff two with:  python -m repro diff <run-a> <run-b>"
    )
    return 0


def _fmt_diff_value(name: str, value) -> str:
    if value is None:
        return "n/a"
    if name.endswith("_rate") or name.endswith("_ratio"):
        return f"{float(value):.2%}"
    return f"{float(value):.4g}"


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.history import (
        diff_runs,
        find_entry,
        history_path,
        load_history,
    )

    root = Path(
        args.cache_dir if args.cache_dir is not None else default_cache_dir()
    )
    entries = {}
    for label, run_id in (("baseline", args.run_a), ("candidate", args.run_b)):
        entry = find_entry(root, run_id)
        if entry is None:
            known = ", ".join(
                str(e.get("run_id")) for e in load_history(root)[-5:]
            )
            raise SystemExit(
                f"error: run {run_id!r} is not in {history_path(root)}; "
                f"most recent: {known or '(none recorded)'}"
            )
        entries[label] = entry
    try:
        diff = diff_runs(
            entries["baseline"], entries["candidate"],
            threshold=args.threshold,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    regressed = bool(diff["regressions"])
    if args.format == "json":
        print(json.dumps(diff, indent=2, sort_keys=True))
        return 1 if regressed and args.strict else 0
    report = ExperimentReport(
        f"{diff['baseline']} -> {diff['candidate']}",
        headers=("metric", "baseline", "candidate", "change"),
    )
    for metric in diff["metrics"]:
        name = metric["name"]
        ratio = metric["ratio"]
        if ratio is None:
            change = "n/a"
        else:
            change = f"{(ratio - 1.0) * 100:+.1f}%"
            if metric["regressed"]:
                change += "  REGRESSED"
        report.add(
            name,
            _fmt_diff_value(name, metric["baseline"]),
            _fmt_diff_value(name, metric["candidate"]),
            change,
        )
    print(
        report.render_markdown()
        if args.format == "markdown"
        else report.render()
    )
    if regressed:
        console(
            f"\n{len(diff['regressions'])} regression(s) beyond "
            f"{args.threshold:.0%}: {', '.join(diff['regressions'])}"
        )
        if args.strict:
            return 1
    else:
        console(f"\nno regressions beyond {args.threshold:.0%}")
    return 0


def _human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n:.1f} GiB"


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------


def _add_override_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trials", type=int, default=None,
        help="override trials per grid point (changes the cache namespace)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the root seed"
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="shard each grid point's trials into chunks of this size",
    )
    parser.add_argument(
        "--locations", default=None,
        help="comma-separated location indices (attack/passive scenarios)",
    )
    parser.add_argument(
        "--patients", type=int, default=None,
        help="override the cohort size (fleet scenarios only)",
    )


def _add_log_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="diagnostic verbosity on stderr (default: REPRO_LOG, "
             "else warning)",
    )


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_WORKERS, else serial)",
    )
    parser.add_argument(
        "--trace", action=argparse.BooleanOptionalAction, default=None,
        help="write a structured JSONL trace (manifest + one span per "
             "unit) to <cache>/runs/<run_id>/trace.jsonl; --no-trace "
             "overrides REPRO_TRACE=1 (never changes results)",
    )
    parser.add_argument(
        "--progress", action=argparse.BooleanOptionalAction, default=None,
        help="publish live progress snapshots through the cache for "
             "`python -m repro top` (default on; --no-progress or "
             "REPRO_PROGRESS=0 silences them; never changes results)",
    )
    _add_log_args(parser)
    parser.add_argument(
        "--cache-dir", default=None,
        help=f"result cache root (default: REPRO_CACHE_DIR or {default_cache_dir()})",
    )
    parser.add_argument(
        "--cache-backend", choices=BACKENDS, default=None,
        help="result store layout (default: REPRO_CACHE_BACKEND, else "
             "filesystem; fleet-scale runs should use sqlite)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="run fully in memory: no cache reads or writes",
    )
    parser.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text",
        help="report format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, resume, and compare named reproduction campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--json", action="store_true", help="emit JSON")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser(
        "run", help="run a scenario (incremental: resumes from cache)"
    )
    p_run.add_argument("scenario", help="registered scenario name")
    p_run.add_argument(
        "--force", action="store_true",
        help="recompute every unit, overwriting cache entries",
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="profile pending-unit evaluation with cProfile and write "
             "profiles/<scenario>.pstats next to the cache root "
             "(forces serial evaluation of the profiled units)",
    )
    p_run.add_argument(
        "--distributed", action="store_true",
        help="coordinate through the SQLite work queue: plan and enqueue "
             "units, wait for `python -m repro worker` processes to drain "
             "them, then reduce (bit-identical to a serial run)",
    )
    p_run.add_argument(
        "--wait-timeout", type=float, default=None,
        help="with --distributed: give up after this many seconds without "
             "campaign completion (default: wait forever)",
    )
    _add_override_args(p_run)
    _add_execution_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_worker = sub.add_parser(
        "worker",
        help="drain a scenario's distributed work queue: claim -> "
             "evaluate -> persist -> complete under an expiring lease",
    )
    p_worker.add_argument("scenario", help="registered scenario name")
    p_worker.add_argument(
        "--worker-id", default=None,
        help="fleet-unique worker identity (default: <hostname>-<pid>)",
    )
    p_worker.add_argument(
        "--lease", type=float, default=60.0,
        help="lease duration in seconds; a crashed worker's unit is "
             "re-queued once its lease expires (default: 60)",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.5,
        help="seconds between claim attempts when the queue is empty "
             "but units are still leased elsewhere (default: 0.5)",
    )
    p_worker.add_argument(
        "--idle-timeout", type=float, default=600.0,
        help="exit (status 3) after this many seconds without claimable "
             "work while units remain uncached; 0 or less polls forever "
             "(default: 600)",
    )
    p_worker.add_argument(
        "--max-units", type=int, default=None,
        help="stop after this many claims (default: run until the "
             "campaign is fully cached)",
    )
    p_worker.add_argument(
        "--cache-dir", default=None,
        help=f"shared cache root (default: REPRO_CACHE_DIR or "
             f"{default_cache_dir()})",
    )
    p_worker.add_argument(
        "--cache-backend", choices=BACKENDS, default=None,
        help="result store layout; the work queue needs sqlite "
             "(default: REPRO_CACHE_BACKEND)",
    )
    p_worker.add_argument(
        "--trace", action=argparse.BooleanOptionalAction, default=None,
        help="write this worker's spans to its own "
             "<cache>/runs/<run_id>/trace.jsonl",
    )
    p_worker.add_argument(
        "--progress", action=argparse.BooleanOptionalAction, default=None,
        help="publish this worker's live progress snapshots through the "
             "shared cache (default on; --no-progress or "
             "REPRO_PROGRESS=0 silences them)",
    )
    _add_override_args(p_worker)
    _add_log_args(p_worker)
    p_worker.set_defaults(func=_cmd_worker)

    p_status = sub.add_parser("status", help="cache completeness of a scenario")
    p_status.add_argument("scenario", help="registered scenario name")
    p_status.add_argument("--json", action="store_true", help="emit JSON")
    p_status.add_argument("--cache-dir", default=None, help="result cache root")
    p_status.add_argument(
        "--cache-backend", choices=BACKENDS, default=None,
        help="result store layout (default: REPRO_CACHE_BACKEND)",
    )
    _add_override_args(p_status)
    _add_log_args(p_status)
    p_status.set_defaults(func=_cmd_status)

    p_cmp = sub.add_parser(
        "compare", help="run two scenarios and diff their shared grid points"
    )
    p_cmp.add_argument("scenario_a", help="baseline scenario name")
    p_cmp.add_argument("scenario_b", help="candidate scenario name")
    _add_override_args(p_cmp)
    _add_execution_args(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser(
        "validate",
        help="judge scenarios against the golden-figure expectation table",
    )
    p_val.add_argument(
        "scenarios", nargs="*",
        help="scenario names (default: every scenario with expectations)",
    )
    p_val.add_argument(
        "--adaptive", action="store_true",
        help="adaptive-precision execution: stop each cell at its CI target "
             "instead of running the fixed trial budget",
    )
    p_val.add_argument(
        "--budget", choices=tuple(_BUDGETS), default="default",
        help="fixed-budget preset: smoke (4 trials, 3 cells -- CI gate), "
             "default (registered budget), full (100 trials per cell)",
    )
    p_val.add_argument(
        "--precision", type=float, default=None,
        help="target CI half-width for every metric (default: per-metric "
             "targets, 0.10 for probabilities / 0.02 for BER)",
    )
    p_val.add_argument(
        "--confidence", type=float, default=None,
        help="confidence level for intervals and verdicts (default 0.95)",
    )
    p_val.add_argument(
        "--interval", choices=("wilson", "jeffreys"), default=None,
        help="proportion-interval construction (default jeffreys)",
    )
    p_val.add_argument(
        "--round-size", type=int, default=None,
        help="adaptive trials per cell per round (default 6)",
    )
    p_val.add_argument(
        "--min-trials", type=int, default=None,
        help="adaptive floor per cell before stopping (default 6)",
    )
    p_val.add_argument(
        "--max-trials", type=int, default=None,
        help="adaptive budget cap per cell (default 100)",
    )
    p_val.add_argument(
        "--strict", action="store_true",
        help="treat inconclusive verdicts (CI straddles a bound) as failures",
    )
    _add_execution_args(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_cache = sub.add_parser(
        "cache", help="inspect and clean the result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_cache_stats = cache_sub.add_parser(
        "stats", help="entries, bytes, and per-scenario counts"
    )
    p_cache_stats.add_argument("--json", action="store_true", help="emit JSON")
    p_cache_stats.add_argument(
        "--cache-dir", default=None, help="result cache root"
    )
    p_cache_stats.add_argument(
        "--cache-backend", choices=BACKENDS, default=None,
        help="result store layout (default: REPRO_CACHE_BACKEND)",
    )
    _add_log_args(p_cache_stats)
    p_cache_stats.set_defaults(func=_cmd_cache_stats)

    p_cache_prune = cache_sub.add_parser(
        "prune", help="drop cached scenario namespaces"
    )
    p_cache_prune.add_argument(
        "--scenario", default=None,
        help="prune every cached namespace of this scenario name",
    )
    p_cache_prune.add_argument(
        "--all", action="store_true", help="prune the whole cache root"
    )
    p_cache_prune.add_argument(
        "--cache-dir", default=None, help="result cache root"
    )
    p_cache_prune.add_argument(
        "--cache-backend", choices=BACKENDS, default=None,
        help="result store layout (default: REPRO_CACHE_BACKEND)",
    )
    _add_log_args(p_cache_prune)
    p_cache_prune.set_defaults(func=_cmd_cache_prune)

    p_report = sub.add_parser(
        "report",
        help="diagnostics from a traced run: latency percentiles, cache "
             "hit rate, worker utilization, slowest units",
    )
    p_report.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (default: any scenario's runs)",
    )
    p_report.add_argument(
        "--run-id", default=None,
        help="report a specific run (default: the most recent trace)",
    )
    p_report.add_argument(
        "--list-runs", action="store_true",
        help="list the matching traced runs instead of reporting one",
    )
    p_report.add_argument(
        "--cache-dir", default=None,
        help=f"result cache root holding runs/ (default: REPRO_CACHE_DIR "
             f"or {default_cache_dir()})",
    )
    p_report.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text",
        help="report format (default: text)",
    )
    p_report.add_argument(
        "--slowest", type=int, default=5,
        help="how many slowest units to list (default: 5)",
    )
    _add_log_args(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_live = sub.add_parser(
        "live",
        help="real-time clinical monitor: stream a cohort's vitals, "
             "attack encounters, and alarms (optionally over SSE with "
             "--serve)",
    )
    p_live.add_argument(
        "--patients", type=int, default=100,
        help="monitored cohort size (default: 100)",
    )
    p_live.add_argument(
        "--seed", type=int, default=0,
        help="cohort/run seed; same seed replays byte-identically "
             "(default: 0)",
    )
    p_live.add_argument(
        "--duration", type=float, default=60.0,
        help="simulated horizon in seconds (default: 60)",
    )
    p_live.add_argument(
        "--telemetry-interval", type=float, default=1.0,
        help="simulated seconds between vitals ticks (default: 1)",
    )
    p_live.add_argument(
        "--speedup", type=float, default=1.0,
        help="simulated seconds per wall second (default: 1 = real time)",
    )
    p_live.add_argument(
        "--drain", action="store_true",
        help="no pacing at all: dispatch the whole schedule as fast as "
             "one core can (replay/benchmark mode)",
    )
    p_live.add_argument(
        "--bursts", type=int, default=1,
        help="attack bursts to inject over the horizon (default: 1)",
    )
    p_live.add_argument(
        "--burst-trials", type=int, default=5,
        help="unauthorized commands per burst (default: 5)",
    )
    p_live.add_argument(
        "--command", choices=("therapy", "interrogate"), default="therapy",
        help="attack command each burst sends (default: therapy)",
    )
    p_live.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="stream over SSE on this port (0 picks a free one); "
             "mounts /events /status /metrics /healthz",
    )
    p_live.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --serve (default: 127.0.0.1)",
    )
    p_live.add_argument(
        "--linger", type=float, default=0.0,
        help="keep serving this many wall seconds after the horizon "
             "so late subscribers drain (default: 0)",
    )
    p_live.add_argument(
        "--log-events", default=None, metavar="PATH",
        help="write the canonical event/alarm log as JSONL to PATH "
             "(two runs of one seed write identical bytes)",
    )
    _add_log_args(p_live)
    p_live.set_defaults(func=_cmd_live)

    p_top = sub.add_parser(
        "top",
        help="live campaign view: cached units, queue depth, leases "
             "(stalled ones flagged), per-participant progress snapshots",
    )
    p_top.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (omit with --live)",
    )
    p_top.add_argument(
        "--live", metavar="URL", default=None,
        help="watch a running `repro live --serve` engine at URL "
             "(polls its /status) instead of a campaign cache",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls (default: 2)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (CI / scripting mode)",
    )
    p_top.add_argument(
        "--json", action="store_true",
        help="emit one JSON status object per poll instead of text",
    )
    p_top.add_argument(
        "--cache-dir", default=None,
        help=f"shared cache root being watched (default: REPRO_CACHE_DIR "
             f"or {default_cache_dir()})",
    )
    p_top.add_argument(
        "--cache-backend", choices=BACKENDS, default=None,
        help="result store layout (default: REPRO_CACHE_BACKEND; queue "
             "and lease sections need sqlite)",
    )
    _add_override_args(p_top)
    _add_log_args(p_top)
    p_top.set_defaults(func=_cmd_top)

    p_export = sub.add_parser(
        "export-metrics",
        help="export campaign/queue/progress state in Prometheus text "
             "format: one-shot file (--output) or HTTP /metrics (--serve)",
    )
    p_export.add_argument("scenario", help="registered scenario name")
    p_export.add_argument(
        "--output", default="-",
        help="write the exposition to this file (default: '-', stdout)",
    )
    p_export.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve a /metrics endpoint on this port instead of a "
             "one-shot export (stdlib http.server; re-collects per scrape)",
    )
    p_export.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --serve (default: 127.0.0.1)",
    )
    p_export.add_argument(
        "--cache-dir", default=None,
        help=f"shared cache root being exported (default: REPRO_CACHE_DIR "
             f"or {default_cache_dir()})",
    )
    p_export.add_argument(
        "--cache-backend", choices=BACKENDS, default=None,
        help="result store layout (default: REPRO_CACHE_BACKEND)",
    )
    _add_override_args(p_export)
    _add_log_args(p_export)
    p_export.set_defaults(func=_cmd_export_metrics)

    p_history = sub.add_parser(
        "history",
        help="recorded runs from <cache>/runs/history.jsonl (traced runs "
             "record automatically at finish)",
    )
    p_history.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (default: every recorded run)",
    )
    p_history.add_argument(
        "--limit", type=int, default=None,
        help="show only the newest N entries (default: all)",
    )
    p_history.add_argument(
        "--cache-dir", default=None,
        help=f"cache root holding runs/history.jsonl (default: "
             f"REPRO_CACHE_DIR or {default_cache_dir()})",
    )
    p_history.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text",
        help="output format (default: text)",
    )
    _add_log_args(p_history)
    p_history.set_defaults(func=_cmd_history)

    p_diff = sub.add_parser(
        "diff",
        help="compare two recorded runs: stage latency percentiles, "
             "cache hit rate, throughput; flags regressions beyond "
             "--threshold",
    )
    p_diff.add_argument("run_a", help="baseline run id (see `repro history`)")
    p_diff.add_argument("run_b", help="candidate run id")
    p_diff.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative regression threshold (default: 0.10 = 10%%)",
    )
    p_diff.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any metric regresses beyond the threshold",
    )
    p_diff.add_argument(
        "--cache-dir", default=None,
        help=f"cache root holding runs/history.jsonl (default: "
             f"REPRO_CACHE_DIR or {default_cache_dir()})",
    )
    p_diff.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text",
        help="output format (default: text)",
    )
    _add_log_args(p_diff)
    p_diff.set_defaults(func=_cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configure_logging(getattr(args, "log_level", None))
    except ValueError as exc:  # junk REPRO_LOG
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except KeyboardInterrupt:
        _log.warning(
            "interrupted -- completed units are cached; "
            "re-run to resume from where this stopped"
        )
        return 130
