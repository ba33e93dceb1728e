"""Tests of the benchmark itself, on tiny runs (`--seconds 1`: the warm-up
round plus one timed round per phase).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = _result(_run(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_and_self_times_sum(workload):
    result = _result(_run(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert 0.0 < values["trace.step_coverage"] <= 1.0
    assert values["models.macs_per_step"] > 0
    assert (values["attention.nxn_bytes_per_step"] > 0) == workload.startswith("distill")

    report = json.loads((BENCH / "out" / f"{workload}-seed0-trace1.json").read_text())
    # every span's self time, summed, is the time of the spans that have no parent
    top_level = sum(end - start for name, start, end, parent, _ in report["spans"]
                    if parent is None)
    assert sum(report["self_s"].values()) == pytest.approx(top_level, rel=1e-9)
    steps = [s for s in report["spans"] if s[0] == "step"]
    assert sum(end - start for _, start, end, _, _ in steps) == \
        pytest.approx(report["incl_s"]["step"], rel=1e-9)


def test_fails_without_the_program_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(BENCH / "reference.json", bare / "perfbench")
    proc = _run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    tracer.open_step()            # 0
    tracer.open("models.a")       # 1
    tracer.open("tensor.op.x")    # 3
    tracer.close()                # 4
    tracer.close()                # 6
    tracer.close_step()           # 10
    assert tracer.self_s == {"tensor.op.x": 1.0, "models.a": 4.0, "step": 5.0}
    assert tracer.incl_s["step"] == 10.0
    assert tracer.in_step_self_s == 10.0
    assert [s[0] for s in tracer.spans] == ["models.a", "step"]
    assert tracer.spans[0][3] == "step"
