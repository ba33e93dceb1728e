#!/usr/bin/env python3
"""Desk-scale end-to-end run: train a teacher on synthetic denoising,
distill a compact student against it, and compare both with a plain
(reconstruction-only) student baseline. The plain student is `distill` at
alpha2 = alpha3 = 0, so it starts from the distilled student's init and
differs from it only in the loss weights.

The run is `configs/denoise32.json` with its epochs, seeds and, under
--paper-tau, contrastive temperature replaced. That config's moderate
temperature keeps all three loss terms on comparable scales; --paper-tau
runs with the 1e-6 default instead (the image-level term then dominates by
several orders of magnitude at this scale).

    python3 scripts/run_smoke.py [--steps 1000] [--seed 0] [--paper-tau]
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from skdistill.config import load_run_config
from skdistill.losses import LossWeights
from skdistill.models import count_params_flops, reduction_percentages
from skdistill.trainer import distill, make_train_heldout, train_teacher

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "denoise32.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=1000,
                        help="teacher steps; the student phases run half as long")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--paper-tau", action="store_true",
                        help="use the 1e-6 contrastive temperature")
    args = parser.parse_args()

    base = load_run_config(CONFIG)
    loss = replace(base.train.loss, tau=LossWeights().tau) if args.paper_tau else base.train.loss
    data = replace(base.data, base_seed=args.seed)

    def with_epochs(epochs: int):
        return replace(base, data=data,
                       train=replace(base.train, epochs=epochs, seed=args.seed, loss=loss))

    batches_per_epoch = data.count // base.train.batch_size
    run = with_epochs(max(1, args.steps // batches_per_epoch))
    student_run = with_epochs(max(1, args.steps // (2 * batches_per_epoch)))
    plain_loss = replace(loss, alpha2=0.0, alpha3=0.0)
    plain_run = replace(student_run, train=replace(student_run.train, loss=plain_loss))
    print(f"corpus: {data.count} train patches, task={data.task}, "
          f"sigma={data.noise_sigma}, patch={data.patch_size}")
    samples, held = make_train_heldout(run)

    t0 = time.perf_counter()
    teacher = train_teacher(run, samples, held)
    t_ev = teacher.eval_history[-1]
    print(f"teacher   [{teacher.checkpoint.step:5d} steps, "
          f"{time.perf_counter()-t0:5.0f}s]  psnr {t_ev['psnr_restored']:.2f} dB "
          f"(degraded {t_ev['psnr_degraded']:.2f} dB)")

    t0 = time.perf_counter()
    distilled = distill(student_run, teacher.checkpoint, samples, held)
    d_ev = distilled.eval_history[-1]
    last = distilled.history[-1]
    print(f"distilled [{distilled.checkpoint.step:5d} steps, "
          f"{time.perf_counter()-t0:5.0f}s]  psnr {d_ev['psnr_restored']:.2f} dB "
          f"(rec {last['rec']:.4f}, gk {last['gk']:.4f}, cl {last['cl']:.4f})")

    t0 = time.perf_counter()
    plain = distill(plain_run, teacher.checkpoint, samples, held)
    p_ev = plain.eval_history[-1]
    print(f"plain     [{plain.checkpoint.step:5d} steps, "
          f"{time.perf_counter()-t0:5.0f}s]  psnr {p_ev['psnr_restored']:.2f} dB "
          f"(reconstruction loss only)")

    size = data.patch_size
    tp, tf = count_params_flops(run.model, size, size)
    sp, sf = count_params_flops(run.student_model, size, size)
    p_red, f_red = reduction_percentages(run.model, run.student_model, size, size)
    print(f"teacher {tp:,} params / {tf:,} flops; student {sp:,} / {sf:,} "
          f"(-{p_red:.1f}% / -{f_red:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
