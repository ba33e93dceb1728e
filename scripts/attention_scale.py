#!/usr/bin/env python3
"""Cost of one distillation step as the patch grows: 32, 64 and 128 px.

For each size a fresh process distills the `configs/denoise32.json` student
against a seeded, untrained teacher of that config's model (a step costs
the same whatever the teacher has learnt) for `--steps` steps of one batch
each. It prints the median seconds per step and minor page faults per step
(`getrusage`) over the steps after the first, and the peak RSS of the
process. The level-1 taps have N = size^2 pixel positions: at 128 px
N = 16 384, where one N x N float64 attention matrix alone would be 2 GiB.
The script exits 1 when the 128 px process peaks above RSS_BOUND_MIB.

    PYTHONPATH=src python3 scripts/attention_scale.py [--sizes 32 64 128] [--steps 3]

The last line of output is one JSON object with the per-size results.
"""

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "denoise32.json"
RSS_BOUND_MIB = 512.0  # for the 128 px process
SEED = 0


def _child(size: int, steps: int) -> dict:
    from skdistill import trainer
    from skdistill.checkpoint import Checkpoint
    from skdistill.config import load_run_config
    from skdistill.data import make_samples
    from skdistill.models import build_net

    run = load_run_config(CONFIG)
    batch = run.train.batch_size
    run = dataclasses.replace(
        run,
        data=dataclasses.replace(run.data, patch_size=size, count=batch * steps),
        train=dataclasses.replace(run.train, epochs=1, seed=SEED))
    teacher = build_net(run.model, SEED)
    ckpt = Checkpoint(meta={"model": run.model.to_dict()},
                      tensors={f"net.{k}": v for k, v in teacher.state_arrays().items()})
    samples = make_samples(run.data)

    # a step runs from its learning rate to the end of its Adam update
    marks: list[tuple[float, int]] = []

    def mark():
        marks.append((time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt))

    cosine_lr, adam_step = trainer.cosine_lr, trainer.adam_step

    def timed_lr(*args, **kwargs):
        mark()
        return cosine_lr(*args, **kwargs)

    def timed_adam(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        mark()
        return out

    trainer.cosine_lr, trainer.adam_step = timed_lr, timed_adam
    result = trainer.distill(run, ckpt, samples, [])
    if result.aborted or len(result.history) != steps:
        raise RuntimeError(f"distill ran {len(result.history)} of {steps} steps: "
                           f"{result.abort_reason}")
    spans = [(end[0] - start[0], end[1] - start[1])
             for start, end in zip(marks[0::2], marks[1::2])][1:]
    return {
        "size": size,
        "n_level1": size * size,
        "steps_timed": len(spans),
        "s_per_step": statistics.median(s for s, _ in spans),
        "minor_faults_per_step": statistics.median(f for _, f in spans),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--steps", type=int, default=3,
                        help="steps per size, >= 2; the first is not timed")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.steps < 2:
        parser.error("--steps must be >= 2")
    if args.child is not None:
        print(json.dumps(_child(args.child, args.steps)))
        return 0
    rows = []
    print(f"{'size':>5} {'N':>7} {'s/step':>8} {'faults/step':>12} {'peak RSS MiB':>13}")
    for size in args.sizes:
        proc = subprocess.run([sys.executable, __file__, "--child", str(size),
                               "--steps", str(args.steps)],
                              capture_output=True, text=True, check=True)
        row = json.loads(proc.stdout.splitlines()[-1])
        rows.append(row)
        print(f"{size:>5} {row['n_level1']:>7} {row['s_per_step']:>8.3f} "
              f"{row['minor_faults_per_step']:>12.0f} {row['peak_rss_mib']:>13.1f}",
              flush=True)
    largest = [r for r in rows if r["size"] == 128]
    over = [r for r in largest if r["peak_rss_mib"] > RSS_BOUND_MIB]
    if largest:
        print(f"128 px peak RSS {'above' if over else 'within'} the {RSS_BOUND_MIB:.0f} MiB bound")
    print(json.dumps({"rss_bound_mib_128": RSS_BOUND_MIB, "steps": args.steps, "sizes": rows}))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
