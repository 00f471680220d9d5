"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/smoke_test.py

Runs every workload once untraced and once traced with ``--tiny`` sizes and
checks that every metric named in BENCHMARK.json is emitted, that traced and
untraced commands write byte-identical CSV files, that the result line keeps
its contract, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_metrics_emitted_and_tracing_keeps_outputs(workload, tmp_path):
    plain = bench.run_workload(workload, None, 0, False, tmp_path / "plain",
                               tiny=True)
    traced = bench.run_workload(workload, None, 0, True, tmp_path / "traced",
                                tiny=True)
    for result in (plain, traced):
        assert result["correct"], result["detail"]["commands"]
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == \
        _units("end_to_end")
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == \
        _units("per_layer")
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    records = traced["detail"]["records"]
    single = [c.metric for c in bench.WORKLOADS[workload] if c.workers == 1]
    for metric in single:
        digests = records[metric]["sha256"]
        assert digests, metric
        assert records[f"{metric}-traced"]["sha256"] == digests
        assert plain["detail"]["records"][metric]["sha256"] == digests


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--tiny",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(_units("end_to_end"))


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed",
         "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_fails_loudly_on_a_missing_function():
    with pytest.raises(RuntimeError, match="eivreg.risk.no_such_function"):
        tracer.install(tracer.SpanRecorder(),
                       {"eivreg.risk": ("no_such_function",)})

