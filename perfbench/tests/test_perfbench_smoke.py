"""Smoke test of the benchmark at tiny sizes: every named metric is emitted with its unit.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, report = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == expected
    for name in expected:
        assert result["metrics"][name]["value"] > 0.0, name
    for fact in ("nproc", "cpu", "blas_version", "blas_threads", "numpy", "python"):
        assert f'"{fact}"' in report
    assert "error_rate: 0 " in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, report = run_bench(workload, 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == expected
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    assert metrics["linalg.svd_calls"] > 0
    traced = metrics["trace.round_traced_s"]
    accounted = metrics["trace.layer_self_sum_s"] + metrics["trace.unattributed_s"]
    assert accounted == pytest.approx(traced, rel=0.05, abs=1e-3)
    assert "spans: .perfbench_out/spans-" in report


def test_refuses_without_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
