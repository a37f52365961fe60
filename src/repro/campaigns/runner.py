"""The campaign runner: scenarios -> work units -> cached, resumable runs.

:class:`CampaignRunner` compiles a :class:`~repro.campaigns.spec.Scenario`
into the same deterministic work plan the sweep helpers use -- one
picklable spec per (grid point, trial chunk), each carrying its own RNG
stream -- fans the pending units across a
:class:`~repro.runtime.SweepExecutor` (streaming: results are consumed
in unit order as they complete), and persists every completed unit to a
:class:`~repro.campaigns.cache.ResultCache` as soon as it finishes.
Because unit results are pure functions of (scenario payload,
plan coordinates), a re-run skips every cached unit and an interrupted
campaign resumes where it stopped; the reduction is order-independent,
so cached + fresh unit mixes reduce to *bit-identical* numbers versus an
uninterrupted serial run.

Attack scenarios evaluate through
:func:`repro.experiments.sweeps.run_attack_chunk` -- the exact code path
of :func:`~repro.experiments.sweeps.attack_success_sweep` -- so a named
campaign reproduces the figure sweeps number for number.
"""

from __future__ import annotations

import cProfile
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.campaigns.cache import ResultCache, default_cache_dir, unit_hash
from repro.campaigns.spec import SCHEMA_VERSION, Scenario
from repro.channel.geometry import TestbedGeometry
from repro.experiments.sweeps import (
    AttackChunkSpec,
    plan_attack_chunks,
    reduce_attack_counts,
    run_attack_chunk,
)
from repro.fleet.cohort import cohort_from_scenario
from repro.fleet.metrics import FleetAccumulator
from repro.fleet.runner import FleetChunkSpec, run_fleet_chunk
from repro.obs.log import get_logger
from repro.obs.metrics import ObsAccumulator, take_global
from repro.obs.progress import ProgressPublisher, resolve_progress
from repro.obs.trace import Tracer, git_revision
from repro.runtime import SweepExecutor, chunk_sizes
from repro.runtime.seeding import round_seed_sequence, unit_seed_sequence
from repro.stats.adaptive import PHYSIO_MOMENT_KEYS

#: Patients per fleet work unit when the scenario does not set
#: ``chunk_size``.  Small enough that a shard's wall time stays in
#: seconds (resume granularity, pool balance), large enough that the
#: per-unit cache overhead vanishes against 10^4-10^6 patients.
DEFAULT_FLEET_SHARD = 100

_log = get_logger("campaigns")

__all__ = [
    "CampaignRunner",
    "CampaignResult",
    "CampaignStatus",
    "CampaignUnit",
    "cell_label",
    "evaluate_unit",
    "location_label",
    "plan_scenario_units",
]


# ----------------------------------------------------------------------
# Work-unit specs beyond the attack kind (picklable, self-contained)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _PassiveChunkSpec:
    """One block of jammed telemetry packets at one location."""

    location_index: int
    n_packets: int
    jam_margin_db: float
    seed: int | np.random.SeedSequence


@dataclass(frozen=True)
class _MimoChunkSpec:
    """One block of multi-antenna eavesdropping attempts at one separation."""

    separation_m: float
    n_packets: int
    packet_bits: int
    n_antennas: int
    sir_db: float
    snr_db: float
    seed: np.random.SeedSequence


@dataclass(frozen=True)
class _PhysioChunkSpec:
    """One block of cardiac telemetry records at one location."""

    location_index: int
    n_records: int
    jam_margin_db: float
    shield_present: bool
    rhythm: str
    packets_per_record: int
    seed: int | np.random.SeedSequence


def _run_passive_chunk(spec: _PassiveChunkSpec) -> dict:
    """Evaluate one passive unit: eavesdropper BER moments over its block.

    The sum of squares rides along so downstream statistics (confidence
    intervals, adaptive stopping) can reconstruct the sample variance
    from cached chunks without keeping per-packet values.
    """
    from repro.experiments.waveform_lab import PassiveLab

    lab = PassiveLab(seed=spec.seed)
    batch = lab.run_batch(
        spec.jam_margin_db,
        n_packets=spec.n_packets,
        location_index=spec.location_index,
        score_shield=False,
    )
    return {
        "ber_sum": float(np.sum(batch.eavesdropper_ber)),
        "ber_sqsum": float(np.sum(np.square(batch.eavesdropper_ber))),
        "n_packets": spec.n_packets,
    }


def _run_mimo_chunk(spec: _MimoChunkSpec) -> dict:
    """Evaluate one MIMO unit: blind-projection attacks at one separation."""
    from repro.adversary.mimo import MIMOEavesdropper
    from repro.core.jamming import ShapedJammer
    from repro.phy.fsk import FSKConfig

    rng = np.random.default_rng(spec.seed)
    fsk = FSKConfig()
    eavesdropper = MIMOEavesdropper(spec.n_antennas, config=fsk, rng=rng)
    jammer = ShapedJammer.matched_to_fsk(
        fsk.deviation_hz, fsk.bit_rate, fsk.sample_rate, rng=rng
    )
    ber_sum = 0.0
    ber_sqsum = 0.0
    rejection_sum = 0.0
    for _ in range(spec.n_packets):
        bits = rng.integers(0, 2, size=spec.packet_bits)
        jam = jammer.generate(fsk.n_samples(spec.packet_bits))
        result = eavesdropper.attack(
            bits,
            jam,
            source_separation_m=spec.separation_m,
            sir_db=spec.sir_db,
            snr_db=spec.snr_db,
        )
        ber_sum += result.bit_error_rate
        ber_sqsum += result.bit_error_rate**2
        rejection_sum += result.jam_rejection_db
    return {
        "ber_sum": ber_sum,
        "ber_sqsum": ber_sqsum,
        "rejection_sum": rejection_sum,
        "n_packets": spec.n_packets,
    }


def _run_physio_chunk(spec: _PhysioChunkSpec) -> dict:
    """Evaluate one physio unit: leakage moments over its record block.

    The :class:`~repro.experiments.physio_lab.PhysioBatchResult` reduces
    itself to mergeable sums/sums-of-squares per leakage metric, so
    cached chunks rebuild exact means and confidence intervals in any
    order -- the same contract the passive BER units honour.
    """
    from repro.experiments.physio_lab import PhysioLab

    lab = PhysioLab(seed=spec.seed, packets_per_record=spec.packets_per_record)
    batch = lab.run_records(
        spec.n_records,
        jam_margin_db=spec.jam_margin_db,
        location_index=spec.location_index,
        shield_present=spec.shield_present,
        rhythm=spec.rhythm,
    )
    return batch.moments()


def evaluate_unit(spec) -> dict:
    """Module-level dispatcher so every unit kind survives pickling."""
    if isinstance(spec, AttackChunkSpec):
        wins, alarms = run_attack_chunk(spec)
        return {"wins": int(wins), "alarms": int(alarms)}
    if isinstance(spec, _PassiveChunkSpec):
        return _run_passive_chunk(spec)
    if isinstance(spec, _MimoChunkSpec):
        return _run_mimo_chunk(spec)
    if isinstance(spec, _PhysioChunkSpec):
        return _run_physio_chunk(spec)
    if isinstance(spec, FleetChunkSpec):
        return run_fleet_chunk(spec)
    raise TypeError(f"unknown work-unit spec {type(spec).__name__}")


# ----------------------------------------------------------------------
# Plan / status / result containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignUnit:
    """One schedulable work unit: content key, plan coordinates, spec."""

    key: str
    coords: dict
    spec: object


@dataclass(frozen=True)
class CampaignStatus:
    """Cache completeness of one scenario."""

    scenario: str
    scenario_hash: str
    total_units: int
    cached_units: int

    @property
    def pending_units(self) -> int:
        return self.total_units - self.cached_units

    @property
    def complete(self) -> bool:
        return self.cached_units >= self.total_units


@dataclass
class CampaignResult:
    """Reduced per-grid-point results of one completed campaign."""

    scenario: Scenario
    points: list[dict]
    total_units: int
    cached_units: int
    computed_units: int

    @property
    def value_key(self) -> str:
        """The headline per-point quantity (for reports and compares)."""
        if self.scenario.kind == "attack":
            return "success_probability"
        if self.scenario.kind == "physio":
            return "hr_abs_error"
        if self.scenario.kind == "fleet":
            return (
                "attack_prevalence"
                if self.scenario.fleet_task == "attack"
                else "hr_leak_median_bpm"
            )
        return "ber"

    def point(self, axis) -> dict:
        for point in self.points:
            if point["axis"] == axis:
                return point
        raise KeyError(f"no grid point {axis!r} in {self.scenario.name}")

    def to_payload(self) -> dict:
        """JSON-ready summary of the whole campaign."""
        return {
            "scenario": self.scenario.name,
            "scenario_hash": self.scenario.scenario_hash(),
            "kind": self.scenario.kind,
            "title": self.scenario.title,
            "value_key": self.value_key,
            "points": self.points,
            "units": {
                "total": self.total_units,
                "from_cache": self.cached_units,
                "computed": self.computed_units,
            },
        }


# ----------------------------------------------------------------------
# Unit planning (shared by the runner and the adaptive scheduler)
# ----------------------------------------------------------------------


_GEOMETRY: TestbedGeometry | None = None


def location_label(index: int) -> str:
    """Human label of one Fig. 6 testbed location."""
    global _GEOMETRY
    if _GEOMETRY is None:
        _GEOMETRY = TestbedGeometry()
    location = _GEOMETRY.location(index)
    kind = "LOS" if location.line_of_sight else "NLOS"
    return f"location {index} ({location.distance_m:g} m {kind})"


def cell_label(scenario: Scenario, axis) -> str:
    """Human label of one grid point of a scenario."""
    if scenario.kind == "mimo":
        return f"separation {axis:.2f} m"
    if scenario.kind == "fleet":
        return f"cohort of {scenario.n_patients} patients"
    return location_label(axis)


def plan_scenario_units(
    scenario: Scenario,
    positions: list[int] | None = None,
    n_trials: int | None = None,
    round_index: int | None = None,
) -> list[CampaignUnit]:
    """A scenario's deterministic work plan, in reduction order.

    With only ``scenario`` this is the full fixed-budget plan the
    campaign runner executes.  The keyword arguments carve out the round
    plans adaptive-precision execution submits instead:

    * ``positions`` restricts planning to a subset of grid cells (by
      index into :meth:`Scenario.axis_values`);
    * ``n_trials`` overrides the per-cell trial count (a round's chunk,
      not the scenario's whole budget);
    * ``round_index`` switches every unit's RNG stream to the round
      spawn-key namespace and stamps the round into its cache
      coordinates, so successive rounds extend a cell's sample with
      fresh independent trials and resume bit-identically from cache.

    Unit identity is always (cell, chunk, trial count[, round]) -- never
    which cells happened to still be active -- so two runs that plan the
    same unit get the same stream and the same cached result.
    """
    if positions is None:
        positions = list(range(scenario.grid_size()))
    trials = scenario.n_trials if n_trials is None else n_trials
    if trials < 1:
        raise ValueError(f"n_trials must be positive, got {trials}")
    if scenario.kind == "fleet":
        if round_index is not None:
            raise ValueError(
                "fleet scenarios run fixed-budget only: a cohort is one "
                "population draw, not a per-cell precision target "
                "(adaptive rounds are not planned for kind='fleet')"
            )
        return _plan_fleet_units(scenario, trials)
    units: list[CampaignUnit] = []
    for position in positions:
        if scenario.kind == "attack":
            location = scenario.location_indices[position]
            for spec in plan_attack_chunks(
                (location,),
                trials,
                scenario.command,
                scenario.attacker,
                scenario.shield_present,
                scenario.antenna_gain_dbi,
                scenario.seed,
                scenario.chunk_size,
                metric=scenario.metric,
                round_index=round_index,
            ):
                coords = {
                    "kind": "attack",
                    "location": spec.location_index,
                    "chunk": spec.chunk_index,
                    "n_trials": spec.n_trials,
                }
                if round_index is not None:
                    coords["round"] = round_index
                units.append(CampaignUnit(unit_hash(coords), coords, spec))
        elif scenario.kind == "passive_ber":
            location = scenario.location_indices[position]
            sizes = chunk_sizes(trials, scenario.chunk_size)
            for chunk_index, size in enumerate(sizes):
                if round_index is not None:
                    seed: int | np.random.SeedSequence = round_seed_sequence(
                        scenario.seed, location, round_index, chunk_index
                    )
                elif len(sizes) == 1:
                    # Mirror the attack plan's seeding convention: a
                    # whole-location block keeps the seed+location
                    # scheme, sharded blocks get per-chunk streams.
                    seed = scenario.seed + location
                else:
                    seed = unit_seed_sequence(
                        scenario.seed, (location, chunk_index)
                    )
                coords = {
                    "kind": "passive_ber",
                    "location": location,
                    "chunk": chunk_index,
                    "n_trials": size,
                }
                if round_index is not None:
                    coords["round"] = round_index
                spec = _PassiveChunkSpec(
                    location_index=location,
                    n_packets=size,
                    jam_margin_db=scenario.jam_margin_db,
                    seed=seed,
                )
                units.append(CampaignUnit(unit_hash(coords), coords, spec))
        elif scenario.kind == "physio":
            location = scenario.location_indices[position]
            sizes = chunk_sizes(trials, scenario.chunk_size)
            for chunk_index, size in enumerate(sizes):
                if round_index is not None:
                    seed: np.random.SeedSequence = round_seed_sequence(
                        scenario.seed, location, round_index, chunk_index
                    )
                else:
                    seed = unit_seed_sequence(
                        scenario.seed, (location, chunk_index)
                    )
                coords = {
                    "kind": "physio",
                    "location": location,
                    "chunk": chunk_index,
                    "n_trials": size,
                }
                if round_index is not None:
                    coords["round"] = round_index
                spec = _PhysioChunkSpec(
                    location_index=location,
                    n_records=size,
                    jam_margin_db=scenario.jam_margin_db,
                    shield_present=scenario.shield_present,
                    rhythm=scenario.rhythm,
                    packets_per_record=scenario.packets_per_record,
                    seed=seed,
                )
                units.append(CampaignUnit(unit_hash(coords), coords, spec))
        else:  # mimo
            separation = scenario.separations_m[position]
            sizes = chunk_sizes(trials, scenario.chunk_size)
            for chunk_index, size in enumerate(sizes):
                if round_index is not None:
                    seed = round_seed_sequence(
                        scenario.seed, position, round_index, chunk_index
                    )
                else:
                    seed = unit_seed_sequence(
                        scenario.seed, (position, chunk_index)
                    )
                coords = {
                    "kind": "mimo",
                    "separation_index": position,
                    "chunk": chunk_index,
                    "n_trials": size,
                }
                if round_index is not None:
                    coords["round"] = round_index
                spec = _MimoChunkSpec(
                    separation_m=separation,
                    n_packets=size,
                    packet_bits=scenario.packet_bits,
                    n_antennas=scenario.n_antennas,
                    sir_db=scenario.sir_db,
                    snr_db=scenario.snr_db,
                    seed=seed,
                )
                units.append(CampaignUnit(unit_hash(coords), coords, spec))
    return units


def _plan_fleet_units(scenario: Scenario, trials: int) -> list[CampaignUnit]:
    """Shard a cohort into contiguous patient-range work units.

    Unit identity is (shard index, patient range, trials per patient):
    pure plan coordinates, exactly like every other kind -- patient
    streams are keyed by absolute patient index, so the shard layout
    never touches the numbers, only the caching/parallelism grain.
    """
    cohort = cohort_from_scenario(scenario)
    shard = (
        scenario.chunk_size
        if scenario.chunk_size is not None
        else DEFAULT_FLEET_SHARD
    )
    units: list[CampaignUnit] = []
    start = 0
    for shard_index, size in enumerate(
        chunk_sizes(scenario.n_patients, shard)
    ):
        coords = {
            "kind": "fleet",
            "shard": shard_index,
            "start": start,
            "n_patients": size,
            "n_trials": trials,
        }
        spec = FleetChunkSpec(
            cohort=cohort,
            start=start,
            count=size,
            trials_per_patient=trials,
            task=scenario.fleet_task,
            attacker=scenario.attacker,
            command=scenario.command,
            packets_per_record=scenario.packets_per_record,
        )
        units.append(CampaignUnit(unit_hash(coords), coords, spec))
        start += size
    return units


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


class CampaignRunner:
    """Compile, execute, persist, resume, and reduce one scenario.

    Parameters
    ----------
    scenario:
        The validated spec to run.
    cache_dir:
        Cache root; ``None`` uses ``REPRO_CACHE_DIR`` /
        ``.repro-cache``.  Ignored when ``persist=False``.
    workers:
        Worker processes for pending units (``None`` defers to
        ``REPRO_WORKERS``; serial by default).  Worker count never
        changes the numbers -- only how fast pending units fill in.
    persist:
        ``False`` runs fully in memory (examples, throwaway grids): no
        cache reads, no writes.
    cache_backend:
        Result-store layout: ``"filesystem"`` (default) or
        ``"sqlite"``; ``None`` defers to ``REPRO_CACHE_BACKEND``.
        Fleet-scale campaigns should prefer SQLite -- one WAL file
        instead of 10^5-10^6 tiny JSON files.
    profile:
        Wrap pending-unit evaluation in :mod:`cProfile` and write
        ``profiles/<scenario>.pstats`` next to the cache root when the
        run finishes.  Profiling forces the units through the serial
        in-process path (a subprocess pool would leave the profiler
        watching pickling, not the actual kernels); worker count is
        ignored for the profiled units -- the override is logged as a
        warning and recorded in the trace manifest (``forced_serial``).
        Numbers are unaffected -- serial and parallel runs are
        bit-identical by contract.
    tracer:
        A started-for-this-run :class:`~repro.obs.trace.Tracer` (or
        ``None``, the default: no tracing, no overhead).  When given,
        the run writes a manifest plus one span per work unit to
        ``runs/<run_id>/trace.jsonl`` under the tracer's root.
        Tracing never enters cache keys, RNG streams, or results: a
        traced run is bit-identical to an untraced one.
    progress:
        Whether the run publishes live progress snapshots through the
        cache's store (:mod:`repro.obs.progress`), for ``python -m
        repro top`` and metric exporters to poll.  ``None`` defers to
        ``REPRO_PROGRESS`` and defaults to on; like tracing it never
        enters cache keys, RNG streams, or results -- a progress-on
        run is bit-identical to a progress-off one.  Moot without a
        persistent cache (``persist=False``): there is no store to
        publish through.
    """

    def __init__(
        self,
        scenario: Scenario,
        cache_dir: Path | str | None = None,
        workers: int | None = None,
        persist: bool = True,
        cache_backend: str | None = None,
        profile: bool = False,
        tracer: Tracer | None = None,
        progress: bool | None = None,
    ):
        self.scenario = scenario
        self.executor = SweepExecutor(workers)
        self.persist = persist
        self.profile = profile
        self.profile_path: Path | None = None
        self.tracer = tracer
        self.progress = resolve_progress(progress)
        self._cache_root = Path(
            cache_dir if cache_dir is not None else default_cache_dir()
        )
        self.cache: ResultCache | None = (
            ResultCache(self._cache_root, backend=cache_backend)
            if persist
            else None
        )

    # -- planning ------------------------------------------------------

    def plan(self) -> list[CampaignUnit]:
        """The scenario's deterministic work plan, in reduction order."""
        return plan_scenario_units(self.scenario)

    # -- execution -----------------------------------------------------

    def status(self) -> CampaignStatus:
        """How much of the campaign the cache already holds."""
        units = self.plan()
        cached = 0
        if self.cache is not None:
            cached = len(
                self.cache.cached_keys(self.scenario, [u.key for u in units])
            )
        return CampaignStatus(
            scenario=self.scenario.name,
            scenario_hash=self.scenario.scenario_hash(),
            total_units=len(units),
            cached_units=cached,
        )

    def materialize(
        self, limit: int | None = None, force: bool = False
    ) -> int:
        """Evaluate up to ``limit`` pending units into the cache.

        Returns how many units were computed.  With ``limit=None`` the
        whole plan materializes; calling this repeatedly (or across
        interrupted processes) converges to a fully cached campaign.
        """
        tracer = self._active_tracer()
        try:
            units, _, computed = self._execute(
                limit=limit, force=force, collect=False
            )
        except BaseException:
            if tracer is not None:
                tracer.finish(interrupted=True)
            raise
        if tracer is not None:
            tracer.finish(
                total_units=len(units), computed_units=computed
            )
        return computed

    def run(self, force: bool = False) -> CampaignResult:
        """Run the campaign to completion and reduce it.

        Cached units are loaded, pending units computed (and persisted
        per batch, so an interrupt resumes); ``force=True`` ignores and
        overwrites existing cache entries.
        """
        tracer = self._active_tracer()
        try:
            units, results, computed = self._execute(
                limit=None, force=force, collect=True
            )
            assert results is not None
            cached = len(units) - computed
            reduce_start = time.perf_counter()
            points = self._reduce(units, [results[u.key] for u in units])
            if tracer is not None:
                tracer.emit(
                    "phase",
                    name="reduce",
                    seconds=time.perf_counter() - reduce_start,
                    units=len(units),
                )
                tracer.finish(
                    total_units=len(units),
                    cached_units=cached,
                    computed_units=computed,
                )
            return CampaignResult(
                scenario=self.scenario,
                points=points,
                total_units=len(units),
                cached_units=cached,
                computed_units=computed,
            )
        except BaseException:
            # An interrupted traced run still leaves a readable trace
            # (manifest + whatever spans were buffered).
            if tracer is not None:
                tracer.finish(interrupted=True)
            raise

    def run_distributed(
        self,
        poll_s: float = 0.5,
        wait_timeout_s: float | None = None,
    ) -> CampaignResult:
        """Coordinate the campaign through the shared work queue.

        Plans the scenario, enqueues every pending unit into the cache
        file's queue tables, then *waits* -- evaluation happens in
        ``python -m repro worker`` processes (any number, any machine
        sharing the cache root) that claim, compute, persist, and
        complete units.  Once every planned key is cached the results
        are loaded and reduced exactly like :meth:`run`: same plan,
        same unit keys, same RNG streams, so the reduced numbers are
        bit-identical to a serial run.

        ``wait_timeout_s`` bounds the wait (``None`` waits forever);
        on timeout the queue state is left intact so workers can keep
        draining it and a later coordinator can finish the reduce.
        """
        if self.cache is None:
            raise ValueError(
                "distributed execution requires a persistent cache "
                "(persist=True)"
            )
        from repro.campaigns.queue import WorkQueue

        scenario_hash = self.scenario.scenario_hash()
        queue = WorkQueue(self.cache.store, scenario_hash)
        tracer = self._active_tracer()
        try:
            if tracer is not None and not tracer.started:
                take_global()
            plan_start = time.perf_counter()
            units = self.plan()
            plan_seconds = time.perf_counter() - plan_start
            keys = [u.key for u in units]
            cached = self.cache.cached_keys(self.scenario, keys)
            pending = [u for u in units if u.key not in cached]
            enqueue_start = time.perf_counter()
            enqueued = queue.enqueue(pending)
            enqueue_seconds = time.perf_counter() - enqueue_start
            if tracer is not None:
                if not tracer.started:
                    manifest = self._manifest(
                        len(units), forced_serial=False
                    )
                    manifest["distributed"] = True
                    tracer.start_run(manifest)
                tracer.emit(
                    "phase", name="plan", seconds=plan_seconds,
                    units=len(units),
                )
                tracer.emit(
                    "phase", name="enqueue", seconds=enqueue_seconds,
                    units=len(pending), new=enqueued,
                )
            _log.info(
                "distributed %s: %d units planned, %d cached, %d queued "
                "(%d newly); start workers with: python -m repro worker %s "
                "--cache-dir %s --cache-backend %s",
                self.scenario.name, len(units), len(cached), len(pending),
                enqueued, self.scenario.name, self._cache_root,
                self.cache.backend,
            )
            publisher = self._progress_publisher(
                "coordinator", len(units), tracer
            )
            wait_start = time.perf_counter()
            done = set(cached)
            if publisher is not None:
                publisher.advance(
                    done=len(done), reused=len(done), phase="wait"
                )
            while len(done) < len(keys):
                waited = time.perf_counter() - wait_start
                if wait_timeout_s is not None and waited > wait_timeout_s:
                    if publisher is not None:
                        publisher.finish(phase="timeout")
                    counts = queue.counts()
                    raise RuntimeError(
                        f"distributed campaign {self.scenario.name} timed "
                        f"out after {waited:.0f}s: {len(keys) - len(done)} "
                        f"of {len(keys)} units pending ({counts.queued} "
                        f"queued, {counts.leased} leased); are workers "
                        f"running? (python -m repro worker "
                        f"{self.scenario.name} --cache-dir "
                        f"{self._cache_root} --cache-backend "
                        f"{self.cache.backend})"
                    )
                time.sleep(poll_s)
                done = self.cache.cached_keys(self.scenario, keys)
                if publisher is not None:
                    # The coordinator never evaluates: its "done" is
                    # whatever the fleet has cached so far.
                    publisher.done_units = len(done)
                    publisher.publish(phase="wait")
            wait_seconds = time.perf_counter() - wait_start
            if publisher is not None:
                publisher.done_units = len(done)
                publisher.finish(phase="reduce")
            if tracer is not None:
                tracer.emit(
                    "phase", name="wait", seconds=wait_seconds,
                    units=len(pending),
                )
            results: dict[str, dict] = {}
            for unit in units:
                result = self.cache.get(self.scenario, unit.key)
                if result is None:
                    raise RuntimeError(
                        f"unit {unit.key} of {self.scenario.name} vanished "
                        "from the cache between completion and reduce"
                    )
                results[unit.key] = result
            reduce_start = time.perf_counter()
            points = self._reduce(units, [results[u.key] for u in units])
            if tracer is not None:
                tracer.emit(
                    "phase", name="reduce",
                    seconds=time.perf_counter() - reduce_start,
                    units=len(units),
                )
                tracer.emit("metrics", metrics=take_global())
                tracer.finish(
                    total_units=len(units),
                    cached_units=len(cached),
                    computed_units=len(pending),
                    distributed=True,
                )
            return CampaignResult(
                scenario=self.scenario,
                points=points,
                total_units=len(units),
                cached_units=len(cached),
                computed_units=len(pending),
            )
        except BaseException:
            if tracer is not None:
                tracer.finish(interrupted=True)
            raise

    def _active_tracer(self) -> Tracer | None:
        """The run's tracer, or ``None`` once it has already closed."""
        if self.tracer is not None and not self.tracer.finished:
            return self.tracer
        return None

    def _progress_publisher(
        self, role: str, total_units: int, tracer: Tracer | None
    ) -> ProgressPublisher | None:
        """This run's live-progress publisher, or None when disabled.

        Needs a persistent cache: snapshots travel through its store
        (that is what makes them visible to ``repro top`` across
        processes and mounts).
        """
        if not self.progress or self.cache is None:
            return None
        return ProgressPublisher(
            self.cache.store,
            self.scenario.scenario_hash(),
            role,
            role=role,
            total_units=total_units,
            scenario=self.scenario.name,
            run_id=tracer.run_id if tracer is not None else None,
            workers=self.executor.workers,
        )

    def _manifest(self, total_units: int, forced_serial: bool) -> dict:
        """The run manifest: what ran, resolved how, at which versions."""
        from repro import __version__ as package_version

        scenario = self.scenario
        return {
            "scenario": scenario.name,
            "scenario_hash": scenario.scenario_hash(),
            "kind": scenario.kind,
            "seed": scenario.seed,
            "n_trials": scenario.n_trials,
            "grid_size": scenario.grid_size(),
            "total_units": total_units,
            "workers": self.executor.workers,
            "effective_workers": 1 if forced_serial else self.executor.workers,
            "forced_serial": forced_serial,
            "profile": self.profile,
            "cache_backend": (
                self.cache.backend if self.cache is not None else None
            ),
            "cache_root": str(self._cache_root),
            "persist": self.persist,
            "schema_version": SCHEMA_VERSION,
            "package_version": package_version,
            "git_revision": git_revision(),
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
        }

    def _execute(
        self, limit: int | None, force: bool, collect: bool
    ) -> tuple[list[CampaignUnit], dict[str, dict] | None, int]:
        """Shared engine of :meth:`materialize` and :meth:`run`."""
        tracer = self._active_tracer()
        if tracer is not None and not tracer.started:
            # Metrics accumulated before this run (imports, other
            # campaigns in-process) are not this run's story; reset
            # before the first instrumented call (the cache scan).
            take_global()
        plan_start = time.perf_counter()
        units = self.plan()
        plan_seconds = time.perf_counter() - plan_start
        results: dict[str, dict] = {}
        pending: list[CampaignUnit] = []
        hits: list[tuple[CampaignUnit, float]] = []
        load_seconds = 0.0
        for unit in units:
            if force or self.cache is None:
                cached = None
            else:
                load_start = time.perf_counter()
                cached = self.cache.get(self.scenario, unit.key)
                load_seconds = time.perf_counter() - load_start
            if cached is not None:
                results[unit.key] = cached
                if tracer is not None:
                    hits.append((unit, load_seconds))
            else:
                pending.append(unit)
        if limit is not None:
            pending = pending[:limit]
        forced_serial = bool(
            self.profile and pending and self.executor.parallel
        )
        if forced_serial:
            _log.warning(
                "--profile forces serial unit evaluation: ignoring "
                "workers=%d for %d pending unit(s) of %s",
                self.executor.workers,
                len(pending),
                self.scenario.name,
            )
        if tracer is not None:
            if not tracer.started:
                tracer.start_run(self._manifest(len(units), forced_serial))
            tracer.emit(
                "phase", name="plan", seconds=plan_seconds, units=len(units)
            )
            for unit, hit_load_s in hits:
                tracer.emit(
                    "unit",
                    key=unit.key,
                    coords=unit.coords,
                    status="hit",
                    load_s=hit_load_s,
                )
        publisher = self._progress_publisher("runner", len(units), tracer)
        if publisher is not None:
            # Cache hits count as done immediately; the executor hook
            # below advances the computed ones as they stream back.
            publisher.advance(
                done=len(results), reused=len(results), phase="execute"
            )
        computed = 0
        # Streaming submission: results arrive in unit order as they
        # complete, and each is flushed to the cache immediately -- an
        # interrupt loses at most the units still in flight, serial and
        # parallel alike.
        executor = self.executor
        profiler: cProfile.Profile | None = None
        if self.profile and pending:
            # Profile in-process: a pool would hide the kernels behind
            # pickling.  Serial evaluation is bit-identical by contract.
            executor = SweepExecutor(1)
            profiler = cProfile.Profile()
        run_metrics = ObsAccumulator() if tracer is not None else None
        if publisher is not None:
            executor.unit_callback = publisher.unit_done
        specs = [u.spec for u in pending]
        execute_start = time.perf_counter()
        submit_mono = time.monotonic()
        if tracer is not None:
            streamed = executor.imap_observed(evaluate_unit, specs)
        else:
            streamed = (
                (result, None) for result in executor.imap(evaluate_unit, specs)
            )
        if profiler is not None:
            profiler.enable()
        try:
            for unit, (result, obs) in zip(pending, streamed):
                if profiler is not None:
                    profiler.disable()
                flush_start = time.perf_counter()
                if self.cache is not None:
                    self.cache.put(
                        self.scenario, unit.key, unit.coords, result
                    )
                flush_seconds = time.perf_counter() - flush_start
                results[unit.key] = result
                computed += 1
                if tracer is not None and obs is not None:
                    run_metrics.merge_payload(obs["metrics"])
                    tracer.emit(
                        "unit",
                        key=unit.key,
                        coords=unit.coords,
                        status="computed",
                        # monotonic clocks are comparable across
                        # processes on Linux; clamp for platforms where
                        # they are not.
                        queue_s=max(0.0, obs["start_mono"] - submit_mono),
                        exec_s=obs["exec_s"],
                        flush_s=flush_seconds,
                        pid=obs["pid"],
                        result_bytes=len(
                            json.dumps(
                                result, sort_keys=True, separators=(",", ":")
                            )
                        ),
                    )
                if profiler is not None:
                    profiler.enable()
        finally:
            executor.unit_callback = None
            if publisher is not None:
                publisher.finish(
                    phase="done" if computed >= len(pending) else "interrupted"
                )
            if profiler is not None:
                profiler.disable()
                self.profile_path = self._dump_profile(profiler)
            if tracer is not None:
                tracer.emit(
                    "phase",
                    name="execute",
                    seconds=time.perf_counter() - execute_start,
                    units=len(pending),
                    workers=1 if forced_serial else executor.workers,
                )
                # Worker deltas rode back per unit; fold in whatever the
                # parent process itself accumulated (cache IO, serial
                # evaluation).
                run_metrics.merge_payload(take_global())
                tracer.emit("metrics", metrics=run_metrics.to_payload())
        if not collect:
            return units, None, computed
        missing = [u.key for u in units if u.key not in results]
        if missing:
            raise RuntimeError(
                f"campaign incomplete: {len(missing)} units unevaluated"
            )
        return units, results, computed

    def _dump_profile(self, profiler: cProfile.Profile) -> Path:
        """Write the unit-evaluation profile next to the cache root.

        ``profiles/<scenario>.pstats`` under the cache root, loadable
        with :mod:`pstats` or snakeviz -- one file per scenario, so the
        next perf change starts from measurements instead of guesses.
        """
        profile_dir = self._cache_root / "profiles"
        profile_dir.mkdir(parents=True, exist_ok=True)
        path = profile_dir / f"{self.scenario.name}.pstats"
        profiler.dump_stats(path)
        return path

    # -- reduction -----------------------------------------------------

    def _reduce(
        self, units: list[CampaignUnit], results: list[dict]
    ) -> list[dict]:
        scenario = self.scenario
        if scenario.kind == "attack":
            plan = [u.spec for u in units]
            counts = [(r["wins"], r["alarms"]) for r in results]
            by_location = reduce_attack_counts(
                plan, counts, scenario.n_trials, scenario.location_indices
            )
            # Carry the integer counts alongside the probabilities so
            # downstream consumers (confidence intervals, merges) never
            # have to reconstruct them from a float.
            wins: dict[int, int] = {loc: 0 for loc in scenario.location_indices}
            alarms: dict[int, int] = {loc: 0 for loc in scenario.location_indices}
            for spec, (chunk_wins, chunk_alarms) in zip(plan, counts):
                wins[spec.location_index] += chunk_wins
                alarms[spec.location_index] += chunk_alarms
            return [
                {
                    "axis": location,
                    "label": self._location_label(location),
                    "success_probability": by_location[location].success_probability,
                    "alarm_probability": by_location[location].alarm_probability,
                    "wins": wins[location],
                    "alarms": alarms[location],
                    "n_trials": scenario.n_trials,
                }
                for location in scenario.location_indices
            ]
        if scenario.kind == "passive_ber":
            ber_sum: dict[int, float] = {}
            ber_sqsum: dict[int, float] = {}
            packets: dict[int, int] = {}
            for unit, result in zip(units, results):
                location = unit.coords["location"]
                ber_sum[location] = ber_sum.get(location, 0.0) + result["ber_sum"]
                ber_sqsum[location] = (
                    ber_sqsum.get(location, 0.0) + result["ber_sqsum"]
                )
                packets[location] = packets.get(location, 0) + result["n_packets"]
            return [
                {
                    "axis": location,
                    "label": self._location_label(location),
                    "ber": ber_sum[location] / packets[location],
                    # Raw moments, so downstream statistics (confidence
                    # intervals, golden-figure validation) never have to
                    # reconstruct them from the mean.
                    "ber_sum": ber_sum[location],
                    "ber_sqsum": ber_sqsum[location],
                    "n_packets": packets[location],
                }
                for location in scenario.location_indices
            ]
        if scenario.kind == "physio":
            sums: dict[int, dict[str, float]] = {}
            for unit, result in zip(units, results):
                location = unit.coords["location"]
                bucket = sums.setdefault(location, {})
                for key, value in result.items():
                    bucket[key] = bucket.get(key, 0.0) + value
            points = []
            for location in scenario.location_indices:
                bucket = sums[location]
                n = int(bucket["n_records"])
                point = {
                    "axis": location,
                    "label": self._location_label(location),
                    "rhythm_accuracy": bucket["rhythm_correct"] / n,
                    "ber": bucket["ber_sum"] / n,
                    "ber_clear": bucket["ber_clear_sum"] / n,
                    "n_records": n,
                }
                for metric, (total, _) in PHYSIO_MOMENT_KEYS.items():
                    point[metric] = bucket[total] / n
                # Raw moments ride along so downstream statistics never
                # reconstruct them from the means.
                point.update(
                    {key: bucket[key] for key in bucket if key != "n_records"}
                )
                point["rhythm_correct"] = int(bucket["rhythm_correct"])
                points.append(point)
            return points
        if scenario.kind == "fleet":
            return [_reduce_fleet(scenario, results)]
        # mimo
        ber_sums: dict[int, float] = {}
        ber_sqsums: dict[int, float] = {}
        rejection_sums: dict[int, float] = {}
        counts_by_sep: dict[int, int] = {}
        for unit, result in zip(units, results):
            index = unit.coords["separation_index"]
            ber_sums[index] = ber_sums.get(index, 0.0) + result["ber_sum"]
            ber_sqsums[index] = ber_sqsums.get(index, 0.0) + result["ber_sqsum"]
            rejection_sums[index] = (
                rejection_sums.get(index, 0.0) + result["rejection_sum"]
            )
            counts_by_sep[index] = (
                counts_by_sep.get(index, 0) + result["n_packets"]
            )
        return [
            {
                "axis": separation,
                "label": f"separation {separation:.2f} m",
                "ber": ber_sums[index] / counts_by_sep[index],
                "ber_sum": ber_sums[index],
                "ber_sqsum": ber_sqsums[index],
                "jam_rejection_db": rejection_sums[index] / counts_by_sep[index],
                "n_packets": counts_by_sep[index],
            }
            for index, separation in enumerate(scenario.separations_m)
        ]

    def _location_label(self, index: int) -> str:
        return location_label(index)


def _reduce_fleet(scenario: Scenario, results: list[dict]) -> dict:
    """Merge shard accumulators into the one population grid point.

    The merge is a stream of fixed-size statistic folds -- never a
    per-patient list -- so the reduction's memory is O(1) in cohort
    size.  The full merged accumulator payload rides along under
    ``"accumulator"`` so golden-figure validation can rebuild exact
    estimators (including the quantile sketch) from the cached point.
    """
    merged = FleetAccumulator()
    for result in results:
        merged.merge(FleetAccumulator.from_payload(result))
    point: dict = {
        "axis": "population",
        "label": cell_label(scenario, "population"),
        "n_patients": merged.patients,
        "shield_worn": merged.shield_worn,
        "trials_total": merged.trials_total,
        "patient_days": merged.patient_days,
        "accumulator": merged.to_payload(),
    }
    if merged.patients:
        point["shield_worn_fraction"] = merged.shield_worn / merged.patients
    if scenario.fleet_task == "attack":
        point.update(
            {
                "attack_prevalence": merged.prevalence_estimator().estimate,
                "patients_compromised": merged.patients_compromised,
                "wins_total": merged.wins_total,
                "alarms_total": merged.alarms_total,
                "alarm_rate_per_day": merged.alarm_rate_estimator().estimate,
            }
        )
    else:
        point.update(
            {
                "hr_leak_median_bpm": merged.hr_quantile_estimator(0.5).estimate,
                "hr_leak_p10_bpm": merged.hr_quantile_estimator(0.1).estimate,
                "hr_leak_p90_bpm": merged.hr_quantile_estimator(0.9).estimate,
                "mean_hr_leak_bpm": merged.hr_err_sum / merged.physio_patients,
                "mean_ber": merged.mean_ber_estimator().estimate,
                "ber_strata": dict(merged.strata),
            }
        )
    return point
