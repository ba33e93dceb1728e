"""Step clock, span tracer and GC observer for the skdistill benchmark.

Every hook wraps skdistill functions from outside the package: nothing
under `src/` changes. A `Patcher` swaps a function in every loaded
`skdistill` module that bound it (including names imported with
`from .x import f`) and puts the originals back on `restore`.

Span names are `<layer>.<part>`, the layer being the skdistill module:
`tensor.op.<op>.fwd` / `.bwd`, `tensor.backward`, `attention.spatial`,
`models.student_forward`, `losses.phi`, `trainer.adam`, `metrics.ssim`,
`data.synth`, `checkpoint.load`, and `step` for one step of the workload.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter

# engine ops with their own metrics; every other op is summed as "elementwise"
NAMED_OPS = {
    "matmul": "matmul",
    "linear": "linear",
    "softmax_cols": "softmax_cols",
    "softmax_rows": "softmax_rows",
    "conv2d": "conv2d",
    "depthwise_conv2d": "depthwise_conv2d",
    "layer_norm_channels": "layer_norm",
    "gelu": "gelu",
    "exp": "exp",
}
# `mean` and `sqrt` are left out: they are built from `mul`/`sum_`/`pow_`,
# which are counted themselves
ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "neg", "pow_", "log", "abs_", "sum_",
                   "reshape", "transpose", "concat", "upsample2x_nearest")
OP_LABELS = tuple(NAMED_OPS.values()) + ("elementwise",)

# spans kept individually; op spans are only aggregated (millions per run)
_KEPT_PREFIXES = ("step", "tensor.backward", "attention.", "models.", "losses.",
                  "trainer.", "metrics.", "data.", "checkpoint.")


class Patcher:
    """Replaces functions and methods in skdistill, reversibly."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "skdistill" or name.startswith("skdistill.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name: str, wrapper) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Nested spans kept in memory; self and inclusive time per span name."""

    def __init__(self) -> None:
        self.stack: list[list] = []      # [name, start, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []     # (name, start, end, parent, step id)
        self.step_id: int | None = None
        self.step_count = 0
        self.in_step_self_s = 0.0        # self time of spans closed inside steps
        self.errors: list[str] = []

    def open(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def close(self) -> None:
        end = perf_counter()
        name, start, child = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.incl_s[name] += duration
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if self.step_id is not None:
            self.in_step_self_s += duration - child
        if name.startswith(_KEPT_PREFIXES):
            self.spans.append((name, start, end, parent[0] if parent else None, self.step_id))

    def open_step(self) -> None:
        self.step_id = self.step_count
        self.step_count += 1
        self.open("step")

    def close_step(self) -> None:
        self.close()
        self.step_id = None

    def unwind(self) -> None:
        """Drop spans left open by an exception that escaped a step."""
        self.stack.clear()
        self.step_id = None


class StepClock:
    """Times each step of the workload.

    Training steps are delimited by the trainer's own calls: a step starts
    when the loop asks `cosine_lr` for its rate and ends when `adam_step`
    returns. The inference loop calls `start`/`stop` itself. Two clock
    reads per step is the whole cost when tracing is off.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.tracer: Tracer | None = None
        self._start: float | None = None

    def start(self) -> None:
        if self.tracer is not None:
            if self._start is not None:   # the previous step raised
                self.tracer.unwind()
            self.tracer.open_step()
        self._start = perf_counter()

    def stop(self) -> None:
        self.durations.append(perf_counter() - self._start)
        self._start = None
        if self.tracer is not None:
            self.tracer.close_step()

    def abandon(self) -> None:
        """Forget a step that an exception cut short."""
        if self._start is not None and self.tracer is not None:
            self.tracer.unwind()
        self._start = None

    def install(self, patcher: Patcher, trainer) -> None:
        lr_fn, adam_fn = trainer.cosine_lr, trainer.adam_step

        def cosine_lr(*args, **kwargs):
            self.start()
            return lr_fn(*args, **kwargs)

        def adam_step(*args, **kwargs):
            tracer = self.tracer
            if tracer is None:
                out = adam_fn(*args, **kwargs)
            else:
                tracer.open("trainer.adam")
                try:
                    out = adam_fn(*args, **kwargs)
                finally:
                    tracer.close()
            self.stop()
            return out

        patcher.function(lr_fn, cosine_lr)
        patcher.function(adam_fn, adam_step)


class GcObserver:
    """Records collector pauses and objects collected; changes no GC setting."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collected = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.pause_s += perf_counter() - self._start
            self.collected += info["collected"]

    def __enter__(self) -> "GcObserver":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()
    return wrapper


def _wrap_op(tracer: Tracer, label: str, fn):
    fwd, bwd = f"tensor.op.{label}.fwd", f"tensor.op.{label}.bwd"

    def op(*args, **kwargs):
        tracer.open(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        inner = out._backward
        if inner is not None:
            if tracer.step_id is not None:
                tracer.counts["tensor.nodes"] += 1

            def backward(g):
                tracer.open(bwd)
                try:
                    inner(g)
                finally:
                    tracer.close()
            out._backward = backward
        return out
    return op


def install(tracer: Tracer, patcher: Patcher, sk, teacher_cfg) -> None:
    """Wraps the public functions of every skdistill layer with spans.

    `teacher_cfg` tells the teacher's forward passes from the student's.
    Each forward's traced MAC count is checked against the closed form of
    `count_params_flops`; a mismatch is recorded in `tracer.errors`.
    """
    T = sk.tensor
    for fn_name, label in NAMED_OPS.items():
        patcher.function(getattr(T, fn_name), _wrap_op(tracer, label, getattr(T, fn_name)))
    for fn_name in ELEMENTWISE_OPS:
        patcher.function(getattr(T, fn_name), _wrap_op(tracer, "elementwise", getattr(T, fn_name)))
    patcher.method(T.Tensor, "backward", _spanned(tracer, "tensor.backward", T.Tensor.backward))

    count_macs = T.count_macs
    expected_macs: dict[tuple, int] = {}
    forward = sk.models.RestorationNet.forward_with_features

    def forward_with_features(net, x):
        role = "teacher" if net.cfg == teacher_cfg else "student"
        tracer.open(f"models.{role}_forward")
        try:
            with count_macs() as counter:
                out = forward(net, x)
        finally:
            tracer.close()
        if tracer.step_id is not None:
            tracer.counts["models.macs"] += counter.macs
        key = (tuple(net.cfg.level_layers), net.cfg.base_channels,
               net.cfg.input_channels, x.shape[1], x.shape[2])
        if key not in expected_macs:
            expected_macs[key] = sk.count_params_flops(net.cfg, x.shape[1], x.shape[2])[1] // 2
        if counter.macs != expected_macs[key]:
            tracer.errors.append(f"forward {key}: traced {counter.macs} MACs, "
                                 f"closed form {expected_macs[key]}")
        return out

    patcher.method(sk.models.RestorationNet, "forward_with_features", forward_with_features)

    att = sk.attention

    def attention_span(name: str, fn, nxn: bool):
        def wrapper(t, s, *args, **kwargs):
            if nxn and tracer.step_id is not None:
                tracer.counts["attention.nxn_bytes"] += 8 * s.pixels * s.pixels
            tracer.open(name)
            try:
                with count_macs() as counter:
                    out = fn(t, s, *args, **kwargs)
            finally:
                tracer.close()
            if tracer.step_id is not None:
                tracer.counts["attention.macs"] += counter.macs
            return out
        return wrapper

    patcher.function(att.spatial_cross_attention,
                     attention_span("attention.spatial", att.spatial_cross_attention, True))
    patcher.function(att.channel_cross_attention,
                     attention_span("attention.channel", att.channel_cross_attention, False))
    patcher.function(att.project, attention_span("attention.project", att.project, False))

    L = sk.losses
    for fn, name in ((L.gk_feature_loss, "losses.gk"),
                     (L.contrastive_loss_from_features, "losses.contrastive"),
                     (L.reconstruction_loss, "losses.rec")):
        patcher.function(fn, _spanned(tracer, name, fn))
    patcher.method(L.PhiExtractor, "__call__",
                   _spanned(tracer, "losses.phi", L.PhiExtractor.__call__))

    # the trainer's held-out PSNR pass is private but is the same eval work
    for fn in (sk.trainer.evaluate, sk.trainer._restoration_psnr):
        patcher.function(fn, _spanned(tracer, "trainer.eval", fn))
    for fn, name in ((sk.metrics.psnr, "metrics.psnr"), (sk.metrics.ssim, "metrics.ssim"),
                     (sk.data.make_samples, "data.synth")):
        patcher.function(fn, _spanned(tracer, name, fn))

    load = sk.checkpoint.load_checkpoint

    def load_checkpoint(path):
        tracer.counts["checkpoint.bytes"] += os.path.getsize(path)
        tracer.open("checkpoint.load")
        try:
            return load(path)
        finally:
            tracer.close()

    patcher.function(load, load_checkpoint)
