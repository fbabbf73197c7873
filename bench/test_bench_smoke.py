"""Smoke test of the benchmark: every workload and the tracer at tiny sizes.

It catches a broken wrapper, a failed output check, or a metric name or unit
that no longer matches BENCHMARK.json. Run it alone with
``python -m pytest bench/test_bench_smoke.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
# Every workload run.py knows, including any not scheduled in BENCHMARK.json.
WORKLOADS = ("compare_protocol", "compare_wide", "acceptance_check")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_scheduled_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
        absent = [name for name, m in result["metrics"].items() if m["value"] is None]
        assert absent == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
