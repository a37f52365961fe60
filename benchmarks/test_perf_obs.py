"""Overhead benchmarks of the observability layer.

Tracing is opt-in, but the metrics hooks (``counter_inc`` in the result
stores, the executor) are *always on* -- so their
cost must stay at dict-update scale, and a traced fleet campaign must
run within a couple of percent of an untraced one.  The paired
``fleet_campaign_untraced`` / ``fleet_campaign_traced`` entries in
``BENCH_baseline.json`` pin that delta; ``benchmarks/compare.py`` gates
both against regression like every other hot path.
"""

from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import Scenario
from repro.campaigns.store import SQLiteStore
from repro.obs.history import load_history, record_run
from repro.obs.metrics import counter_inc, observed_call, take_global
from repro.obs.progress import ProgressPublisher
from repro.obs.trace import Tracer

#: The fleet workload both campaign benches run: a 100-patient physio
#: cohort in four 25-patient shards, in memory (no cache I/O noise).
_SCENARIO = Scenario(
    name="bench-obs-fleet",
    kind="fleet",
    fleet_task="physio",
    n_patients=100,
    n_trials=1,
    chunk_size=25,
)


def test_perf_fleet_campaign_untraced(benchmark):
    """Baseline: the fleet campaign with no tracer attached."""

    def run():
        return CampaignRunner(_SCENARIO, persist=False).run()

    result = benchmark(run)
    assert result.total_units == 4
    assert result.computed_units == 4


def test_perf_fleet_campaign_traced(benchmark, tmp_path):
    """The same campaign traced: manifest + four unit spans per run.

    Compare against ``fleet_campaign_untraced``: the delta is the whole
    per-run cost of tracing (target < 2%).
    """
    counter = {"n": 0}

    def run():
        counter["n"] += 1
        tracer = Tracer(
            tmp_path, _SCENARIO.name, run_id=f"round-{counter['n']}"
        )
        return CampaignRunner(_SCENARIO, persist=False, tracer=tracer).run()

    result = benchmark(run)
    assert result.total_units == 4
    assert result.computed_units == 4


def test_perf_counter_inc(benchmark):
    """The always-on hook: 10k counter updates (one dict op each)."""

    def run():
        for _ in range(10_000):
            counter_inc("bench.obs.counter")
        return take_global()

    payload = benchmark(run)
    assert payload["counters"]["bench.obs.counter"] == 10_000


def test_perf_observed_call(benchmark):
    """The worker wrapper: 1k observed evaluations of a trivial unit."""

    def unit(value):
        return value

    def run():
        for index in range(1_000):
            observed_call(unit, index)
        return take_global()

    benchmark(run)


def test_perf_tracer_emit(benchmark, tmp_path):
    """Span emission: 1k unit events serialized to one JSONL trace."""
    counter = {"n": 0}

    def run():
        counter["n"] += 1
        tracer = Tracer(tmp_path, "bench-emit", run_id=f"e-{counter['n']}")
        tracer.start_run({"scenario": "bench-emit"})
        for index in range(1_000):
            tracer.emit(
                "unit",
                key=f"unit-{index:04d}",
                coords={"chunk": index},
                status="computed",
                queue_s=0.0,
                exec_s=0.001,
                flush_s=0.0001,
                pid=1234,
                result_bytes=600,
            )
        tracer.finish(total_units=1_000)
        return tracer.path.stat().st_size

    size = benchmark(run)
    assert size > 100_000


def test_perf_progress_publish(benchmark, tmp_path):
    """100 forced snapshot publishes through a shared SQLite store.

    The live path workers hit between units: serialize one snapshot
    dict, upsert one row.  Throttling normally caps this at one write
    per interval; ``force=True`` benches the write itself.
    """
    store = SQLiteStore(tmp_path)
    publisher = ProgressPublisher(
        store, "bench-hash", "bench-worker",
        role="worker", total_units=1_000, scenario="bench-obs-fleet",
    )

    def run():
        written = 0
        for _ in range(100):
            publisher.advance(done=1, computed=1)
            written += publisher.publish(force=True)
        return written

    written = benchmark(run)
    assert written == 100
    store.close()


def test_perf_history_record(benchmark, tmp_path):
    """Indexing one finished run into ``runs/history.jsonl``.

    The cost every traced run pays at ``Tracer.finish``: re-read its
    trace, summarize, append one fsynced JSON line.
    """
    tracer = Tracer(tmp_path, "bench-history", run_id="bench-history-run")
    tracer.start_run({"scenario": "bench-history"})
    for index in range(100):
        tracer.emit(
            "unit", key=f"unit-{index:04d}", status="computed",
            queue_s=0.0, exec_s=0.001, flush_s=0.0001,
        )
    tracer.finish(total_units=100)

    def run():
        return record_run(tmp_path, tracer.run_dir)

    entry = benchmark(run)
    assert entry["run_id"] == "bench-history-run"
    assert load_history(tmp_path)[-1]["run_id"] == "bench-history-run"
