"""skdistill benchmark: teacher training, distillation and student inference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads (see workloads.py and BENCHMARK.json): teacher-denoise32,
distill-denoise32, infer-rgb64. Each run is one process, so `peak_rss_mb`
(the lifetime maximum of `ru_maxrss`) belongs to that workload alone.

`--trace 0` sets the workload up several times (median `setup_s`), runs
one untimed round, then whole rounds for S seconds, and reports the
end-to-end metrics:

- setup_s          median seconds of one set-up (corpus, nets, checkpoint)
- samples_per_s    samples through the timed steps per second: training
                   samples, or for inference images restored and scored
- step_s_p50       median seconds per step (an optimizer step; for
                   inference, one `load_checkpoint` + `evaluate` of an image)
- peak_rss_mb      peak RSS of this process, MiB
- heldout_psnr_db  held-out PSNR after the round's fixed step budget, or
                   the mean PSNR of the evaluated images

Failed operations over attempted ones (`failed_ratio`) is carried by the
result's `failed` and `attempted` counts: it is 0 on working code. A step
fails when its round aborts, raises, or an output check does not match.

`--trace 1` runs the untimed round, S/2 seconds untraced, one traced
set-up, then S/2 seconds
with every layer wrapped in spans (tracing.py), and reports the per-layer
metrics: times and counts per step, `trace.overhead_ratio` (traced over
untraced median step time, minus 1) and `trace.step_coverage` (share of the
step time that child spans account for). It also checks that the self
times of the spans inside steps sum to the step time, that each forward's
traced MACs equal `count_params_flops`, and that the N x N bytes equal
their closed form from the tap shapes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it give the
provenance and a readable report; the full report, with the kept spans, is
written to perfbench/out/. `--record` stores the first round's outcome as
the reference for the seed in perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3     # set-ups per run: at least this many, and
SETUP_SECONDS = 1.0   # until this much time has passed; setup_s is their median
REL_TOL = 1e-6   # reference match; leaves room for another BLAS kernel choice


def _cap_blas_threads() -> int:
    """BLAS threads <= nproc; set before numpy loads OpenBLAS."""
    nproc = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        wanted = nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, nproc)))
    return nproc


def _blas_threads() -> int | None:
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(nproc: int, seed: int, workload: str, trace: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "trace": trace, "nproc": nproc,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def _compare(got: dict, want: dict) -> list[str]:
    errors = []
    for key, expected in want.items():
        value = got.get(key)
        pairs = list(zip(value, expected)) if isinstance(expected, list) else [(value, expected)]
        if value is None or (isinstance(expected, list) and len(value) != len(expected)) \
                or not all(_close(a, b) for a, b in pairs):
            errors.append(f"{key} = {value!r}, reference {expected!r}")
    return errors


def run_round(workload, clock):
    from workloads import RoundResult
    first_step = len(clock.durations)
    try:
        r = workload.run_round(clock)
    except Exception as exc:   # a failed round counts; the loop goes on
        traceback.print_exc()
        clock.abandon()
        r = RoundResult(workload.round_steps, [f"raised {exc!r}"], None)
    r.step_s = clock.durations[first_step:]
    return r


def run_phase(workload, clock, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed (at least one)."""
    clock.durations = []
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, clock))
    return {"rounds": rounds, "durations": list(clock.durations)}


def check_rounds(rounds: list, reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors): every round must equal the first bit for
    bit and match the stored reference within REL_TOL."""
    first = next((r.outcome for r in rounds if r.outcome is not None), None)
    attempted = failed = 0
    errors: list[str] = []
    for i, r in enumerate(rounds):
        problems = list(r.errors)
        if r.outcome is not None:
            if r.outcome != first:
                problems.append(f"outcome {r.outcome} differs from the first round {first}")
            if reference is not None:
                problems += _compare(r.outcome, reference)
        attempted += r.steps
        if problems:
            failed += r.steps
            errors += [f"round {i}: {p}" for p in problems]
    return attempted, failed, errors


def _p(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload, setup_times: list[float], phase: dict) -> dict:
    import resource
    durations = phase["durations"]
    first = next((r.outcome for r in phase["rounds"] if r.outcome is not None), {})
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (workload.samples_per_step * len(durations) / sum(durations)
                          if durations else 0.0, "1/s"),
        "step_s_p50": (_median(durations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "heldout_psnr_db": (first.get("heldout_psnr_db", 0.0), "dB"),
    }


def per_layer(tracer, setup_tracer, untraced: dict, traced: dict, gc_untraced) -> dict:
    from tracing import OP_LABELS
    n = max(tracer.step_count, 1)
    n_untraced = max(len(untraced["durations"]), 1)
    incl = lambda name: tracer.incl_s.get(name, 0.0) / n
    m: dict[str, tuple[float, str]] = {}
    for label in OP_LABELS:
        fwd, bwd = f"tensor.op.{label}.fwd", f"tensor.op.{label}.bwd"
        m[f"{fwd}_s"] = (tracer.self_s.get(fwd, 0.0) / n, "s")
        m[f"{bwd}_s"] = (tracer.self_s.get(bwd, 0.0) / n, "s")
        m[f"tensor.op.{label}.calls"] = (tracer.calls.get(fwd, 0) / n, "count")
    m["tensor.backward_s"] = (tracer.self_s.get("tensor.backward", 0.0) / n, "s")
    m["tensor.nodes_per_step"] = (tracer.counts["tensor.nodes"] / n, "count")
    m["tensor.gc_pause_s"] = (gc_untraced.pause_s / n_untraced, "s")
    m["tensor.gc_collected"] = (gc_untraced.collected / n_untraced, "count")
    for part in ("spatial", "channel", "project"):
        m[f"attention.{part}_s"] = (incl(f"attention.{part}"), "s")
    m["attention.nxn_bytes_per_step"] = (tracer.counts["attention.nxn_bytes"] / n, "B")
    m["attention.macs_per_step"] = (tracer.counts["attention.macs"] / n, "MAC")
    forward_s = 0.0
    for role in ("student", "teacher"):
        m[f"models.{role}_forward_s"] = (incl(f"models.{role}_forward"), "s")
        forward_s += m[f"models.{role}_forward_s"][0]
    macs = tracer.counts["models.macs"] / n
    m["models.macs_per_step"] = (macs, "MAC")
    m["models.gflop_per_s"] = (2.0 * macs / forward_s / 1e9 if forward_s else 0.0, "GFLOP/s")
    for part in ("gk", "phi", "contrastive", "rec"):
        m[f"losses.{part}_s"] = (incl(f"losses.{part}"), "s")
    m["trainer.adam_s"] = (incl("trainer.adam"), "s")
    m["trainer.step_s_p90"] = (_p(untraced["durations"], 90), "s")
    m["trainer.eval_s"] = (incl("trainer.eval"), "s")
    m["trainer.other_s"] = (tracer.self_s.get("step", 0.0) / n, "s")
    m["metrics.ssim_s"] = (incl("metrics.ssim"), "s")
    m["metrics.psnr_s"] = (incl("metrics.psnr"), "s")
    m["data.synth_s"] = (setup_tracer.incl_s.get("data.synth", 0.0), "s")
    loads = setup_tracer.calls.get("checkpoint.load", 0) + tracer.calls.get("checkpoint.load", 0)
    load_s = setup_tracer.incl_s.get("checkpoint.load", 0.0) + tracer.incl_s.get("checkpoint.load", 0.0)
    load_bytes = setup_tracer.counts["checkpoint.bytes"] + tracer.counts["checkpoint.bytes"]
    m["checkpoint.load_s"] = (load_s / loads if loads else 0.0, "s")
    m["checkpoint.bytes"] = (load_bytes / loads if loads else 0.0, "B")
    step_traced, step_untraced = _median(traced["durations"]), _median(untraced["durations"])
    m["trace.overhead_ratio"] = (step_traced / step_untraced - 1.0 if step_untraced else 0.0,
                                 "ratio")
    traced_mean = statistics.fmean(traced["durations"]) if traced["durations"] else 0.0
    m["trace.step_coverage"] = (1.0 - m["trainer.other_s"][0] / traced_mean
                                if traced_mean else 0.0, "ratio")
    return m


def trace_checks(tracer, workload) -> list[str]:
    errors = list(tracer.errors)
    step_s = tracer.incl_s.get("step", 0.0)
    if abs(tracer.in_step_self_s - step_s) > 1e-6 * step_s:
        errors.append(f"self times inside steps sum to {tracer.in_step_self_s!r} s, "
                      f"steps take {step_s!r} s")
    want = workload.nxn_bytes_per_step() * tracer.step_count
    if tracer.counts["attention.nxn_bytes"] != want:
        errors.append(f"N x N bytes {tracer.counts['attention.nxn_bytes']} over "
                      f"{tracer.step_count} steps, closed form {want}")
    return errors


def _report_lines(metrics: dict, tracer=None) -> list[str]:
    lines = [f"{name:34s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    if tracer is not None:
        n = max(tracer.step_count, 1)
        lines.append(f"{'span (per step)':34s} {'self_s':>12s} {'incl_s':>12s} {'calls':>10s}")
        for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True):
            lines.append(f"{name:34s} {tracer.self_s[name] / n:12.6f} "
                         f"{tracer.incl_s[name] / n:12.6f} {tracer.calls[name] / n:10.2f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["teacher-denoise32", "distill-denoise32", "infer-rgb64"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the first round's outcome as the seed's reference")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "skdistill" / "__init__.py").is_file():
        print(f"skdistill sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import skdistill as sk
    from tracing import GcObserver, Patcher, StepClock, Tracer, install
    from workloads import WORKLOADS

    prov = provenance(nproc, args.seed, args.workload, args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    reference = references.get(args.workload, {}).get(str(args.seed))
    workload = WORKLOADS[args.workload](args.workload, sk, ROOT, OUT_DIR, args.seed)

    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    clock = StepClock()
    clock.install(Patcher(), sk.trainer)
    # one untimed round: the heap and the collector settle (distill's heap
    # grows through its first ~20 steps); its outputs are still checked
    warmup = run_round(workload, clock)
    report: dict = {"provenance": prov}
    if not args.trace:
        phase = run_phase(workload, clock, args.seconds)
        metrics = end_to_end(workload, setup_times, phase)
        rounds = [warmup] + phase["rounds"]
        errors: list[str] = []
        lines = _report_lines(metrics)
        report["step_s"] = [r.step_s for r in rounds]
    else:
        with GcObserver() as gc_untraced:
            untraced = run_phase(workload, clock, args.seconds / 2)
        e2e = end_to_end(workload, setup_times, untraced)
        setup_tracer, patcher = Tracer(), Patcher()
        install(setup_tracer, patcher, sk, workload.teacher_cfg)
        clock.tracer = setup_tracer
        workload.setup()
        patcher.restore()
        tracer = Tracer()
        install(tracer, patcher, sk, workload.teacher_cfg)
        clock.tracer = tracer
        traced = run_phase(workload, clock, args.seconds / 2)
        patcher.restore()
        clock.tracer = None
        metrics = per_layer(tracer, setup_tracer, untraced, traced, gc_untraced)
        rounds = [warmup] + untraced["rounds"] + traced["rounds"]
        errors = trace_checks(tracer, workload) + setup_tracer.errors
        lines = ["untraced end to end:"] + _report_lines(e2e) + ["traced per layer:"] \
            + _report_lines(metrics, tracer) \
            + [f"tracing overhead: median step {_median(traced['durations']):.6f} s traced, "
               f"{_median(untraced['durations']):.6f} s untraced"]
        report["end_to_end_untraced"] = e2e
        report["self_s"] = dict(tracer.self_s)
        report["incl_s"] = dict(tracer.incl_s)
        report["calls"] = dict(tracer.calls)
        report["spans"] = tracer.spans

    attempted, failed, round_errors = check_rounds(rounds, reference)
    errors += round_errors
    correct = not errors
    for line in lines:
        print(line)
    print(f"{'failed_ratio':34s} {failed / attempted:14.6g} ({failed}/{attempted} steps)")
    print(f"reference: {'seed ' + str(args.seed) if reference else 'none stored for this seed'}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    if args.record:
        first = next((r.outcome for r in rounds if r.outcome is not None), None)
        if first is None or errors:
            print("--record: nothing recorded, the run has errors", file=sys.stderr)
            return 1
        references.setdefault(args.workload, {})[str(args.seed)] = first
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")

    report.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  correct=correct, attempted=attempted, failed=failed, errors=errors)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report) + "\n", encoding="utf-8")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
