"""The benchmark's workloads.

Each workload is a closed loop with one caller: every training step or
evaluated image waits for the previous one. A workload sets itself up from
the seed (corpus, nets, checkpoints), then runs whole rounds of a fixed
size; every round must reproduce the first bit for bit and match the
stored reference for the seed, when there is one.

- `teacher-denoise32`: `train_teacher` on the acceptance-smoke shape.
- `distill-denoise32`: `distill` of the student against a teacher made in
  set-up, at the paper's tau = 1e-6.
- `infer-rgb64`: `load_checkpoint` + `evaluate` of the paper-shaped
  student on 64x64 RGB derain patches, one image per step.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

HELDOUT = 32           # held-out patches after the training corpus
INFER_IMAGES = 8       # 64x64 RGB derain patches evaluated in turn
TEACHER_EPOCHS = 5     # 50 optimizer steps per teacher round
DISTILL_EPOCHS = 1     # 10 optimizer steps per distill round
SETUP_TEACHER_EPOCHS = 1
PAPER_TAU = 1e-6


@dataclasses.dataclass
class RoundResult:
    steps: int                  # steps attempted in the round
    errors: list[str]
    outcome: dict | None        # values checked across rounds and against the reference
    step_s: list[float] = dataclasses.field(default_factory=list)  # the round's step times


def _run_config(sk, root: Path, name: str, seed: int, epochs: int):
    run = sk.load_run_config(root / "configs" / name)
    loss = dataclasses.replace(run.train.loss, tau=PAPER_TAU)
    train = dataclasses.replace(run.train, epochs=epochs, seed=seed, loss=loss)
    data = dataclasses.replace(run.data, base_seed=seed)
    return dataclasses.replace(run, train=train, data=data)


class TrainWorkload:
    """`train_teacher` or `distill` rounds on the denoise32 configuration."""

    def __init__(self, name: str, sk, root: Path, out_dir: Path, seed: int):
        self.sk = sk
        self.distill = name.startswith("distill")
        self.run = _run_config(sk, root, "denoise32.json", seed,
                               DISTILL_EPOCHS if self.distill else TEACHER_EPOCHS)
        self.teacher_cfg = self.run.model
        self.samples_per_step = self.run.train.batch_size
        self.round_steps = self.run.train.epochs * (self.run.data.count // self.samples_per_step)
        self.ckpt_path = out_dir / f"teacher-seed{seed}.skdc"

    def setup(self) -> None:
        sk, run = self.sk, self.run
        self.train = sk.make_samples(run.data)
        self.held = sk.make_samples(run.data, first_index=run.data.count, count=HELDOUT)
        if self.distill:
            teacher_run = dataclasses.replace(
                run, train=dataclasses.replace(run.train, epochs=SETUP_TEACHER_EPOCHS))
            made = sk.train_teacher(teacher_run, self.train, self.held)
            if made.aborted:
                raise RuntimeError("set-up teacher training aborted")
            sk.save_checkpoint(made.checkpoint, self.ckpt_path)
            self.teacher = sk.load_checkpoint(self.ckpt_path)

    def nxn_bytes_per_step(self) -> int:
        """Closed form: one float64 N x N matrix per spatial attention call."""
        if not self.distill:
            return 0
        cfg, size = self.run.student_model, self.run.data.patch_size
        enc = [(size >> (level - 1)) ** 2 for level in range(1, cfg.levels + 1)]
        taps = enc + enc[:-1][::-1]
        return self.samples_per_step * sum(8 * n * n for n in taps)

    def run_round(self, clock) -> RoundResult:
        sk = self.sk
        if self.distill:
            res = sk.distill(self.run, self.teacher, self.train, self.held)
        else:
            res = sk.train_teacher(self.run, self.train, self.held)
        errors = []
        if res.aborted:
            errors.append("training aborted")
        if len(res.history) != self.round_steps:
            errors.append(f"{len(res.history)} steps run, expected {self.round_steps}")
        if not all(math.isfinite(h["loss"]) for h in res.history):
            errors.append("non-finite loss")
        report = sk.evaluate(res.checkpoint, self.held)
        held_psnr = res.eval_history[-1]["psnr_restored"]
        # the trainer's held-out pass and `evaluate` restore the same images
        if report["psnr"] != held_psnr:
            errors.append(f"evaluate psnr {report['psnr']!r} != trainer psnr {held_psnr!r}")
        outcome = {"final_loss": res.history[-1]["loss"] if res.history else float("nan"),
                   "heldout_psnr_db": held_psnr}
        return RoundResult(self.round_steps, errors, outcome)


class InferWorkload:
    """`load_checkpoint` + `evaluate` of the paper-shaped student, one image a step."""

    teacher_cfg = None
    samples_per_step = 1
    round_steps = INFER_IMAGES

    def __init__(self, name: str, sk, root: Path, out_dir: Path, seed: int):
        self.sk = sk
        self.seed = seed
        run = sk.load_run_config(root / "configs" / "student_restormer_shaped.json")
        self.cfg = run.model
        self.spec = dataclasses.replace(run.data, task="derain", channels=self.cfg.input_channels,
                                        patch_size=64, count=INFER_IMAGES, base_seed=seed)
        self.expected_params, self.expected_flops = sk.count_params_flops(self.cfg, 64, 64)
        self.ckpt_path = out_dir / f"student-rgb64-seed{seed}.skdc"

    def setup(self) -> None:
        sk = self.sk
        self.images = sk.make_samples(self.spec)
        net = sk.build_net(self.cfg, self.seed)
        # build_net zero-initialises the final projection (identity net); drawing
        # it from the seed makes every output pixel depend on every layer. The
        # small scale keeps the rain, not the random correction, as the main
        # error, so the PSNR varies little from seed to seed
        final = net.params()["final.w"]
        c_in = final.shape[1]
        final.data = np.random.default_rng(self.seed).normal(
            scale=0.01 / math.sqrt(9.0 * c_in), size=final.shape)
        tensors = {f"net.{k}": p.data for k, p in net.params().items()}
        ckpt = sk.Checkpoint(meta={"kind": "bench-student", "model": self.cfg.to_dict()},
                             tensors=tensors)
        sk.save_checkpoint(ckpt, self.ckpt_path)
        sk.load_checkpoint(self.ckpt_path)

    def nxn_bytes_per_step(self) -> int:
        return 0

    def run_round(self, clock) -> RoundResult:
        sk = self.sk
        errors = []
        psnrs, ssims = [], []
        for image in self.images:
            clock.start()
            report = sk.evaluate(sk.load_checkpoint(self.ckpt_path), [image])
            clock.stop()
            if (report["params"], report["flops"]) != (self.expected_params, self.expected_flops):
                errors.append(f"report params/flops {report['params']}/{report['flops']} "
                              f"!= {self.expected_params}/{self.expected_flops}")
            if not (math.isfinite(report["psnr"]) and -1.0 <= report["ssim"] <= 1.0):
                errors.append(f"report out of range: {report}")
            psnrs.append(report["psnr"])
            ssims.append(report["ssim"])
        outcome = {"psnr": psnrs, "ssim": ssims,
                   "heldout_psnr_db": float(np.mean(psnrs))}
        return RoundResult(self.round_steps, errors, outcome)


WORKLOADS = {
    "teacher-denoise32": TrainWorkload,
    "distill-denoise32": TrainWorkload,
    "infer-rgb64": InferWorkload,
}
