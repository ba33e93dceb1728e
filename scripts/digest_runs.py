#!/usr/bin/env python3
"""Print one JSON object of digests that pins down the bits of training.

For `configs/denoise32.json` at 2 epochs, seeds 0 and 3 and contrastive
temperatures 1e-6 and 0.5, trains a teacher and distills a student
against it. Each run contributes the sha256 of its checkpoint bytes, of
its `history` and of its `eval_history`, plus the held-out PSNR and SSIM
from `evaluate`. A refactor that claims to keep behaviour shows the same
output before and after:

    PYTHONPATH=src python3 scripts/digest_runs.py > after.json
    diff before.json after.json
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from skdistill.checkpoint import checkpoint_to_bytes
from skdistill.config import load_run_config
from skdistill.trainer import distill, evaluate, make_train_heldout, train_teacher

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "denoise32.json"
EPOCHS = 2
SEEDS = (0, 3)
TAUS = (1e-6, 0.5)


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _digest(result, heldout) -> dict:
    report = evaluate(result.checkpoint, heldout)
    return {
        "checkpoint": _sha256(checkpoint_to_bytes(result.checkpoint)),
        "history": _sha256(json.dumps(result.history, sort_keys=True).encode()),
        "eval_history": _sha256(json.dumps(result.eval_history, sort_keys=True).encode()),
        "psnr": report["psnr"],
        "ssim": report["ssim"],
    }


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
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
