"""The pair summary of `scripts/bench_pairs.py` on hand-made run results."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(name, parent, change):
    return {side: [{"metrics": {name: v}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


def test_higher_is_better(bench_pairs):
    metric = {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.5}
    row = bench_pairs.summarise(metric, runs_of("samples_per_s", [10.0, 11.0, 12.0, 13.0, 14.0],
                                                [12.0, 11.0, 15.0, 16.0, 17.0]))
    assert row["parent_q1_median_q3"] == [11.0, 12.0, 13.0]
    assert row["change_q1_median_q3"] == [12.0, 15.0, 16.0]
    assert row["median_change_rel"] == pytest.approx(0.25)
    assert (row["change_wins"], row["ties"]) == ("4/5", 1)
    assert not row["unresolved"]
    assert row["within_bound"] and row["median_gap_exceeds_parent_iqr"]


def test_lower_is_better_and_the_bound(bench_pairs):
    metric = {"name": "step_s_p50", "unit": "s", "better": "lower", "bound": 0.24}
    row = bench_pairs.summarise(metric, runs_of("step_s_p50", [1.0, 1.0, 1.0], [1.3, 0.9, 1.3]))
    assert (row["change_wins"], row["ties"]) == ("1/3", 0)
    assert row["median_change_rel"] == pytest.approx(0.3)
    assert not row["unresolved"] and not row["within_bound"]
    assert row["median_gap_exceeds_parent_iqr"]  # the parent's IQR is 0


def test_a_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    metric = {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
    # equal medians, but the change's IQR (6) is wider than 0.1 x 20
    row = bench_pairs.summarise(metric, runs_of("samples_per_s", [19.0, 20.0, 21.0],
                                                [14.0, 20.0, 26.0]))
    assert row["median_change_rel"] == 0.0
    assert row["unresolved"] and not row["within_bound"]
    # the same spread is resolved when every change run beats every parent run
    row = bench_pairs.summarise(metric, runs_of("samples_per_s", [19.0, 20.0, 21.0],
                                                [30.0, 36.0, 42.0]))
    assert not row["unresolved"] and row["within_bound"]


def test_a_run_without_result_is_kept_and_its_pair_left_out(bench_pairs, tmp_path, capsys):
    fake = ("import json, sys\n"
            "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            "if {crash} and seed == 1:\n"
            "    sys.exit('boom')\n"
            "print(json.dumps({{'correct': True, 'failed': 0, 'metrics': "
            "{{'samples_per_s': {{'value': {value} + seed}}}}}}))\n")
    spec = {"run_seconds": 0.5, "end_to_end": [
        {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}]}
    for side, crash, value in (("parent", False, 10.0), ("change", True, 11.0)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            fake.format(crash=crash, value=value))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "w", "--pairs", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and not report["all_correct"]
    assert "--seconds 0.5" in report["command"]
    failed = report["runs"]["change"][1]
    assert (failed["seed"], failed["correct"], failed["error"]) == (1, False, "boom")
    row = report["metrics"]["samples_per_s"]
    assert row["pairs_with_results"] == 2 and row["change_wins"] == "2/2"
