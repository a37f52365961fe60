"""Smoke test of the end-to-end benchmark harness at tiny sizes.

Run from the repository root::

    python -m pytest perfbench/test_perfbench_smoke.py -q

Each workload runs once traced (which also runs its plain pass) at
``--tiny`` sizes, so a change that breaks a launch, a correctness check,
a layer wrapper or the result line fails here in about two minutes
instead of in a full benchmark run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer(workload):
    metrics = result_of(run_bench(workload, trace=1))["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[k]["unit"] == units[k] for k in metrics)
    assert metrics["startup.modules"]["value"] > 0
    if workload == "control_plane_warm":
        assert metrics["cache.hit_ratio"]["value"] == 1.0
        assert all(
            metrics[f"runner.evaluate_unit.{k}_calls"]["value"] == 0
            for k in ("attack", "passive_ber", "mimo", "physio", "fleet")
        )
    if workload == "reproduce_cold":
        assert metrics["runner.evaluate_unit.physio_calls"]["value"] > 0
        assert metrics["cache.put_calls"]["value"] == metrics["runner.units"]["value"]
    if workload == "live_ward":
        assert metrics["live.events"]["value"] > 0
        assert metrics["hub.flushes"]["value"] > 0


def test_plain_run_reports_every_end_to_end_metric():
    metrics = result_of(run_bench("live_ward", trace=0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = run_bench("reproduce_cold", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
