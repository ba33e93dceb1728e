#!/usr/bin/env python3
"""Alternating parent/change pairs of `perfbench/run.py` for one workload.

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in the parent checkout and once in the change checkout, back to back,
one process at a time. Pair k uses seed `--first-seed + k`; the parent runs
first on even k and the change first on odd k. The run length T
(`run_seconds`) and the end-to-end metrics, their units, directions and
bounds are read from the change checkout's `BENCHMARK.json`, so both sides
run as the benchmark runs them.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        [--pairs 10] [--first-seed 0] > result.json

Prints one JSON object on stdout (progress goes to stderr) with, for each
end-to-end metric over the pairs where both sides gave a result: each
side's q1/median/q3 (numpy's default, inclusive quartiles), the change
median relative to the parent's, `change_wins` (pairs where the change is
better, ties counting for neither), `ties`, `unresolved` (either side's
interquartile range is wider than the bound times the parent median, and
the change's runs do not all beat all the parent's), `within_bound` (not
unresolved, and the change median is not worse than the parent's by more
than the bound) and `median_gap_exceeds_parent_iqr`. It also gives
`all_correct` over every run, the failed steps of each side and every run's
raw result; a run that gave no result is kept there with its exit code and
`error`. Exits 1 when a run gives no result or any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             metrics: list[str]) -> dict:
    """One benchmark run: its seed, correctness, failed steps and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {name: result["metrics"][name]["value"] for name in metrics}
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"seed": seed, "correct": False, "returncode": proc.returncode,
                "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            "metrics": values}


def summarise(metric: dict, runs: dict[str, list[dict]]) -> dict:
    """Pair statistics of one end-to-end metric; pairs missing a result are left out."""
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if "metrics" in p and "metrics" in c]
    if not pairs:
        return {"unit": metric["unit"], "better": metric["better"], "bound": bound,
                "pairs_with_results": 0, "unresolved": True, "within_bound": False}
    values = {side: np.array([pair[i]["metrics"][name] for pair in pairs])
              for i, side in enumerate(SIDES)}
    q = {side: [float(x) for x in np.percentile(values[side], [25, 50, 75])] for side in SIDES}
    parent_med, change_med = q["parent"][1], q["change"][1]
    diffs = values["change"] - values["parent"]
    better = diffs > 0 if higher else diffs < 0
    worse_rel = (parent_med - change_med if higher else change_med - parent_med) / abs(parent_med)
    all_beat = (values["change"].min() > values["parent"].max() if higher
                else values["change"].max() < values["parent"].min())
    unresolved = bool(not all_beat and max(q[side][2] - q[side][0] for side in SIDES)
                      > bound * abs(parent_med))
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "pairs_with_results": len(pairs),
        "parent_q1_median_q3": q["parent"],
        "change_q1_median_q3": q["change"],
        "median_change_rel": (change_med - parent_med) / abs(parent_med),
        "change_wins": f"{int(better.sum())}/{len(diffs)}",
        "ties": int((diffs == 0).sum()),
        "unresolved": unresolved,
        "within_bound": bool(not unresolved and worse_rel <= bound),
        "median_gap_exceeds_parent_iqr":
            bool(abs(change_med - parent_med) > q["parent"][2] - q["parent"][0]),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, names = spec["run_seconds"], [m["name"] for m in spec["end_to_end"]]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for k in range(args.pairs):
        seed = args.first_seed + k
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, seed, seconds, names)
            runs[side].append(result)
            shown = (f"samples_per_s={result['metrics']['samples_per_s']:.4g}"
                     if "metrics" in result else f"no result: {result['error']}")
            print(f"pair {k} seed {seed} {side}: correct={result['correct']} {shown}",
                  file=sys.stderr)

    report = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": args.pairs,
        "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
        "order": "parent first on even pairs, change first on odd pairs",
        "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_steps": {side: sum(r.get("failed", 0) for r in runs[side]) for side in SIDES},
        "metrics": {m["name"]: summarise(m, runs) for m in spec["end_to_end"]},
        "runs": runs,
    }
    print(json.dumps(report, indent=1))
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
