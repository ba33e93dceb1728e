#!/usr/bin/env python3
"""Print one JSON object of digests that pins down the bits of training.

For `configs/denoise32.json` at 2 epochs, seeds 0 and 3 and contrastive
temperatures 1e-6 and 0.5, trains a teacher and distills a student
against it. Each run contributes the sha256 of its checkpoint bytes, of
its tensors, of its `history` and of its `eval_history`, plus the held-out
PSNR and SSIM from `evaluate`. The `tensors` digest covers the step and
each tensor's name, shape and bytes, in file order, and leaves out the
meta: a change to the config's shape moves `checkpoint` (through the
stored config and its hash) but not `tensors`, which moves only when the
trained bits do. The `infer` entry is the `evaluate` report (PSNR, SSIM,
parameters, FLOPs) of a seeded `configs/student_restormer_shaped.json` net
on four 64x64 RGB derain patches, its zero-initialised `final.w` drawn from
the seed so that every layer reaches the output. The `corpus` entry is the
sha256 of the `make_samples` bytes, clean then degraded per sample, of the
denoise32 corpus spec for each task at seeds 0 and 3. A refactor that
claims to keep behaviour shows the same output before and after:

    PYTHONPATH=src python3 scripts/digest_runs.py > after.json
    diff before.json after.json
"""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from skdistill.checkpoint import Checkpoint, checkpoint_to_bytes
from skdistill.config import load_run_config
from skdistill.data import make_samples
from skdistill.models import build_net
from skdistill.trainer import distill, evaluate, make_train_heldout, train_teacher

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONFIG = CONFIGS / "denoise32.json"
INFER_CONFIG = CONFIGS / "student_restormer_shaped.json"
INFER_IMAGES = 4
INFER_SIZE = 64
EPOCHS = 2
SEEDS = (0, 3)
TAUS = (1e-6, 0.5)
TASKS = ("denoise", "deblur", "derain")


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _tensors_sha256(ckpt: Checkpoint) -> str:
    h = hashlib.sha256(str(ckpt.step).encode())
    for name, arr in ckpt.tensors.items():
        arr = np.asarray(arr, dtype="<f8")
        h.update(f"{name}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _digest(result, heldout) -> dict:
    report = evaluate(result.checkpoint, heldout)
    return {
        "checkpoint": _sha256(checkpoint_to_bytes(result.checkpoint)),
        "tensors": _tensors_sha256(result.checkpoint),
        "history": _sha256(json.dumps(result.history, sort_keys=True).encode()),
        "eval_history": _sha256(json.dumps(result.eval_history, sort_keys=True).encode()),
        "psnr": report["psnr"],
        "ssim": report["ssim"],
    }


def _infer_report(seed: int) -> dict:
    run = load_run_config(INFER_CONFIG)
    cfg = run.model
    spec = dataclasses.replace(run.data, task="derain", channels=cfg.input_channels,
                               patch_size=INFER_SIZE, count=INFER_IMAGES, base_seed=seed)
    net = build_net(cfg, seed)
    final = net.params()["final.w"]
    final.data = np.random.default_rng(seed).normal(
        scale=0.01 / math.sqrt(9.0 * final.shape[1]), size=final.shape)
    ckpt = Checkpoint(meta={"model": cfg.to_dict()},
                      tensors={f"net.{k}": p.data for k, p in net.params().items()})
    report = evaluate(ckpt, make_samples(spec))
    return {k: report[k] for k in ("psnr", "ssim", "params", "flops")}


def _corpus_sha256(spec) -> str:
    h = hashlib.sha256()
    for sample in make_samples(spec):
        h.update(sample.clean.tobytes())
        h.update(sample.degraded.tobytes())
    return h.hexdigest()


def main() -> int:
    base = load_run_config(CONFIG)
    digests = {}
    for seed in SEEDS:
        for tau in TAUS:
            loss = dataclasses.replace(base.train.loss, tau=tau)
            train = dataclasses.replace(base.train, epochs=EPOCHS, seed=seed, loss=loss)
            run = dataclasses.replace(base, train=train)
            samples, heldout = make_train_heldout(run)
            teacher = train_teacher(run, samples, heldout)
            student = distill(run, teacher.checkpoint, samples, heldout)
            digests[f"seed{seed}-tau{tau:g}"] = {"teacher": _digest(teacher, heldout),
                                                 "distill": _digest(student, heldout)}
    digests["infer"] = {f"seed{seed}": _infer_report(seed) for seed in SEEDS}
    digests["corpus"] = {
        f"{task}-seed{seed}": _corpus_sha256(dataclasses.replace(base.data, task=task,
                                                                 base_seed=seed))
        for task in TASKS for seed in SEEDS}
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
