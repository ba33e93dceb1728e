"""Optimization loop, schedules, distillation orchestration, evaluation.

Teacher training minimizes the reconstruction term alone. Distillation
optimizes the full weighted objective over the student parameters plus the
per-tap projectors; the teacher is loaded frozen and its features enter
the interaction detached, so its bytes never change. At alpha2 = alpha3 = 0
distillation is plain reconstruction training of the student: the teacher
and phi never run.

All randomness flows through labelled streams derived from the run seed,
which keeps two runs of the same (config, seed) bitwise identical.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import cross_net_features, make_projector
from .checkpoint import Checkpoint
from .config import LR_MIN, RunConfig, config_hash
from .data import Sample, batch_indices, make_samples, normalize, denormalize
from .errors import CheckpointFormatError, ConfigError, NonFiniteError, RangeError
from .losses import (
    LossWeights,
    PhiExtractor,
    contrastive_loss_from_features,
    gk_feature_loss,
    reconstruction_loss,
    total_loss,
)
from .metrics import psnr, ssim
from .models import ModelConfig, RestorationNet, build_net, compress_config, count_params_flops
from .seeding import derive_seed, rng_for
from .tensor import Tensor

# Adam's published defaults (Kingma & Ba 2015); the paper does not tune them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers aligned with a fixed parameter order."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState,
              lr: float) -> AdamState:
    """One Adam update with bias correction; mutates params in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigError("adam_step: params/grads/state lengths differ")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter index {i}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        # direction first: bounded even when the second moment saturates
        p.data = p.data - lr * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))
    return state


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float) -> float:
    """Half-cosine decay from lr_max at step 0 to lr_min at step == total."""
    if total_steps < 1:
        raise RangeError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise RangeError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[dict] = field(default_factory=list)
    eval_history: list[dict] = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""


def make_train_heldout(run: RunConfig) -> tuple[list[Sample], list[Sample]]:
    """Training samples plus a fresh held-out block after them, a fifth as
    large (at least 4 samples)."""
    train = make_samples(run.data)
    held = make_samples(run.data, first_index=run.data.count, count=max(4, run.data.count // 5))
    return train, held


def _restore(net: RestorationNet, sample: Sample) -> np.ndarray:
    """The net's restoration of one degraded sample, clipped to [0, 1]."""
    out = net.forward(Tensor(normalize(sample.degraded))).data
    # checked before the clip, which would turn inf into 1.0
    if not np.isfinite(out).all():
        raise NonFiniteError("the net's output holds NaN or Inf")
    return np.clip(denormalize(out), 0.0, 1.0)


def _restoration_psnr(net: RestorationNet, samples: list[Sample]) -> dict:
    restored = [psnr(_restore(net, s), s.clean, 1.0) for s in samples]
    degraded = [psnr(s.degraded, s.clean, 1.0) for s in samples]
    return {"psnr_restored": float(np.mean(restored)),
            "psnr_degraded": float(np.mean(degraded))}


def _finalize(net: RestorationNet, aux: dict[str, Tensor], run: RunConfig,
              kind: str, state: AdamState, param_names: list[str], step: int,
              aborted: bool) -> Checkpoint:
    tensors: dict[str, np.ndarray] = {}
    for name, p in net.params().items():
        tensors[f"net.{name}"] = p.data
    for name, p in aux.items():
        tensors[f"aux.{name}"] = p.data
    for name, m, v in zip(param_names, state.m, state.v):
        tensors[f"opt.m.{name}"] = m
        tensors[f"opt.v.{name}"] = v
    meta = {
        "kind": kind,
        "model": net.cfg.to_dict(),
        "config": run.to_dict(),
        "config_hash": config_hash(run),
        "adam_t": state.t,
    }
    if aborted:
        meta["aborted"] = True
    return Checkpoint(step=step, meta=meta, tensors=tensors)


def _batch_step(objective, batch: list[Sample], params: list[Tensor],
                w: LossWeights, step: int) -> tuple[float, dict, list[np.ndarray]]:
    """Loss, its components and the parameter gradients of one batch.

    `objective(batch)` returns a function that builds one sample's terms
    `(rec, gk, cl)`; an unused term is 0.0. Each sample runs forward and then
    backward from its share of the batch objective, `total_loss` of its terms
    times 1/B, and its graph is freed before the next sample's forward, so
    only one sample's graph is alive. The samples go in reverse order: the
    sweep of one graph over the whole batch reaches the last sample's nodes
    first, and each parameter gets one contribution per sample, so summing
    the per-sample gradients in this order gives that sweep's bits. The loss
    components are recombined from the per-sample values in forward order,
    with the association of the batch mean, and the loss is `total_loss` of
    those means.
    """
    sample_terms = objective(batch)
    inv_b = 1.0 / len(batch)
    values: list[tuple[float, float, float]] = []
    grads: list[np.ndarray] = []
    for sample in reversed(batch):
        terms = sample_terms(sample)
        value = tuple(T.as_tensor(term).item() for term in terms)
        if not all(map(math.isfinite, value)):
            raise NonFiniteError(f"non-finite loss at step {step}")
        root = total_loss(*(T.mul(term, inv_b) for term in terms), w)
        root.backward(leaves=params)
        del terms, root  # this sample's graph, before the next forward
        if grads:
            for g, p in zip(grads, params):
                g += p.grad
        else:
            grads = [p.grad for p in params]
        values.append(value)
    values.reverse()
    rec, gk, cl = (functools.reduce(operator.add, column) * inv_b
                   for column in zip(*values))
    loss = total_loss(rec, gk, cl, w).item()
    if not math.isfinite(loss):
        raise NonFiniteError(f"non-finite loss at step {step}")
    return loss, {"rec": rec, "gk": gk, "cl": cl}, grads


def _train_loop(net: RestorationNet, extra_params: dict[str, Tensor],
                run: RunConfig, objective, kind: str,
                train_samples: list[Sample], heldout: list[Sample]) -> TrainResult:
    """Shared optimization driver.

    `objective(batch)` gives the per-sample terms that `_batch_step`
    streams, and closes over whatever networks it needs; `net` holds the
    parameters being optimized together with `extra_params` (projectors),
    in that order.
    """
    cfg = run.train
    names = [f"net.{n}" for n in net.params()] + list(extra_params)
    params = list(net.params().values()) + list(extra_params.values())
    state = AdamState.for_params(params)
    batches_per_epoch = len(train_samples) // cfg.batch_size
    if batches_per_epoch < 1:
        raise ConfigError(
            f"{len(train_samples)} samples cannot fill a batch of {cfg.batch_size}")
    total_steps = cfg.epochs * batches_per_epoch
    history: list[dict] = []
    eval_history: list[dict] = []
    ema: float | None = None  # moving average of the step loss, decay 0.9
    step = 0
    abort_reason = ""
    for epoch in range(cfg.epochs):
        if abort_reason:
            break
        for batch_ids in batch_indices(len(train_samples), cfg.batch_size,
                                       cfg.seed, epoch):
            lr = cosine_lr(step, total_steps, cfg.lr_max, LR_MIN)
            batch = [train_samples[i] for i in batch_ids]
            try:
                loss_value, components, grads = _batch_step(objective, batch, params,
                                                            cfg.loss, step)
                adam_step(params, grads, state, lr)
                step += 1
                # 1 - 0.9 rounds to just below 0.1; writing 0.1 would change the ema bits
                ema = loss_value if ema is None else 0.9 * ema + (1 - 0.9) * loss_value
                record = {"step": step, "lr": lr, "loss": loss_value, "ema": ema}
                record.update(components)
                history.append(record)
                # the last step is always scored; an aborted run never gets there
                if heldout and (step % cfg.eval_interval == 0 or step == total_steps):
                    eval_history.append({"step": step, **_restoration_psnr(net, heldout)})
            except NonFiniteError as exc:
                # abort with the parameters of the last step whose loss was
                # finite (a failed update is not applied or adam_step rejects it)
                abort_reason = str(exc)
                break
    ckpt = _finalize(net, extra_params, run, kind, state, names, step, bool(abort_reason))
    return TrainResult(checkpoint=ckpt, history=history, eval_history=eval_history,
                       aborted=bool(abort_reason), abort_reason=abort_reason)


def train_teacher(run: RunConfig, train_samples: list[Sample],
                  heldout: list[Sample]) -> TrainResult:
    """Reconstruction-only training of the teacher. A plain student is
    `distill` at alpha2 = alpha3 = 0, from the distilled student's init."""
    net = build_net(run.model, derive_seed(run.train.seed, "teacher"))

    def sample_terms(sample):
        x, target = Tensor(normalize(sample.degraded)), Tensor(normalize(sample.clean))
        return reconstruction_loss(net.forward(x), target), 0.0, 0.0

    return _train_loop(net, {}, run, lambda batch: sample_terms, "plain-teacher",
                       train_samples, heldout)


def load_net(ckpt: Checkpoint) -> RestorationNet:
    """The checkpointed net, frozen; parameters come from the 'net.' tensors."""
    model = ckpt.meta.get("model") if isinstance(ckpt.meta, dict) else None
    if not isinstance(model, dict):
        raise CheckpointFormatError("checkpoint meta has no 'model' section")
    state = {name[len("net."):]: arr for name, arr in ckpt.tensors.items()
             if name.startswith("net.")}
    return RestorationNet.from_state(ModelConfig.from_dict(model), state)


def distill(run: RunConfig, teacher_ckpt: Checkpoint, train_samples: list[Sample],
            heldout: list[Sample]) -> TrainResult:
    """Distill the student against a frozen teacher checkpoint."""
    student_cfg = run.student_model
    if student_cfg is None:
        raise ConfigError("distillation needs a student_model section")
    teacher = load_net(teacher_ckpt)
    # validates level counts and per-knob compression, then input channels
    if compress_config(teacher.cfg, student_cfg.level_layers,
                       student_cfg.base_channels) != student_cfg:
        raise ConfigError(f"student input_channels {student_cfg.input_channels} differ from the "
                          f"teacher's {teacher.cfg.input_channels}")
    w = run.train.loss
    student = build_net(student_cfg, derive_seed(run.train.seed, "student"))
    d_u = w.unified_dim
    proj_rng = rng_for(run.train.seed, "projectors")
    # one (teacher, student) pair per tap, p_t drawn before p_s
    pairs = [(make_projector(c_t, d_u, proj_rng), make_projector(c_s, d_u, proj_rng))
             for c_t, c_s in zip(teacher.cfg.tap_channels(), student_cfg.tap_channels())]
    extra_params = {f"proj{i}.{side}.{k}": tensor
                    for i, pair in enumerate(pairs)
                    for side, p in zip("ts", pair)
                    for k, tensor in zip("wb", p)}
    phi = PhiExtractor(student_cfg.input_channels, derive_seed(run.train.seed, "phi"))
    use_gk = w.alpha2 > 0.0
    use_cl = w.alpha3 > 0.0

    def objective(batch):
        # the contrastive negatives, phi of the batch's degraded inputs
        negatives = [phi(Tensor(normalize(s.degraded))) for s in batch] if use_cl else []

        def sample_terms(sample):
            x, target = Tensor(normalize(sample.degraded)), Tensor(normalize(sample.clean))
            s_out, s_feats = student.forward_with_features(x)
            rec = reconstruction_loss(s_out, target)
            gk = cl = 0.0
            if use_gk or use_cl:
                t_out, t_feats = teacher.forward_with_features(x)
            if use_gk:
                gk = gk_feature_loss([cross_net_features(t, s, *pair)
                                      for t, s, pair in zip(t_feats, s_feats, pairs)], w)
            if use_cl:
                cl = contrastive_loss_from_features(
                    phi(s_out), phi(t_out.detach()), negatives, w.tau)
            return rec, gk, cl

        return sample_terms

    return _train_loop(student, extra_params, run, objective, "distill",
                       train_samples, heldout)


def evaluate(ckpt: Checkpoint, samples: list[Sample]) -> dict:
    """Deterministic metrics report for a checkpoint over a sample set.

    The images must share one shape: `params`/`flops` are counted at it."""
    if not samples:
        raise ConfigError("evaluate needs at least one sample")
    shape = samples[0].clean.shape
    for i, s in enumerate(samples):
        if s.clean.shape != shape:
            raise ConfigError(f"evaluate needs images of one shape: sample {i} is "
                              f"{s.clean.shape}, sample 0 is {shape}")
    net = load_net(ckpt)
    psnr_scores = []
    ssim_scores = []
    for s in samples:
        restored = _restore(net, s)
        psnr_scores.append(psnr(restored, s.clean, 1.0))
        ssim_scores.append(ssim(restored, s.clean, 1.0))
    _, h, w_ = shape
    params, flops = count_params_flops(net.cfg, h, w_)
    return {
        "task": samples[0].task,
        "psnr": float(np.mean(psnr_scores)),
        "ssim": float(np.mean(ssim_scores)),
        "params": params,
        "flops": flops,
        "steps": ckpt.step,
        "config_hash": ckpt.meta.get("config_hash", ""),
    }
