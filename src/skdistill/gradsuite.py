"""Seeded finite-difference audit of every differentiable op and loss.

`CHECKS` is the whole audit: one `(name, trials, case)` row per check.
Each check draws from its own stream, `rng_for(seed, "gradsuite", name)`,
so adding, dropping or reordering rows moves no other check's reading. A
case builds trial `i` from `(rng, i)` and picks the input it
differentiates by `i`, so every input it names is checked at every seed.
A check reports the worst `tensor.gradcheck` error over its trials: the
relative error between analytic and central-difference gradients after
each entry's stencil round-off is taken off. The suite backs the
`gradcheck` CLI command; it is sized to exceed one hundred trials total
while staying fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (
    FeatureMap,
    channel_cross_attention,
    cross_net_features,
    make_projector,
    spatial_cross_attention,
)
from .losses import (
    LossWeights,
    PhiExtractor,
    contrastive_loss_from_features,
    gaussian_kernel_distance,
    gk_feature_loss,
    reconstruction_loss,
    total_loss,
)
from .models import ModelConfig, build_net
from .seeding import rng_for
from .tensor import Tensor

DEFAULT_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    trials: int
    max_rel_err: float

    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOL


def _sq(x: Tensor) -> Tensor:
    return T.sum_(T.mul(x, x))


def _add_case(r, i):
    col = Tensor(r.normal(size=(3, 1)))
    m = Tensor(r.normal(size=(3, 4)))
    if i % 2 == 0:
        return lambda x: _sq(T.add(T.add(x, col), 0.5)), Tensor(r.normal(size=(3, 4)))
    return lambda x: _sq(T.add(m, x)), Tensor(r.normal(size=(1, 4)))


def _sub_mul_div_case(r, i):
    op = (T.sub, T.mul, T.div)[i % 3]
    a = Tensor(r.normal(size=(2, 5)))
    b = Tensor(r.normal(size=(2, 5)) + 3.0)  # away from 0, for div
    if i % 2 == 0:
        return lambda x: _sq(op(x, b)), a
    return lambda x: _sq(op(a, x)), b


def _neg_pow_case(r, i):
    base = Tensor(r.uniform(0.5, 2.0, size=6))
    if i % 2 == 0:
        return lambda x: _sq(T.neg(x)), Tensor(r.normal(size=6))
    return lambda x: T.sum_(T.add(T.sqrt(T.mul(T.mul(x, x), 1.0)),
                                  T.pow_(T.add(T.abs_(x), base), 1.7))), \
        Tensor(r.uniform(0.5, 2.0, size=6))


def _exp_log_case(r, i):
    if i % 2 == 0:
        return lambda x: T.sum_(T.exp(x)), Tensor(r.normal(size=(2, 3)))
    return lambda x: T.sum_(T.log(T.add(T.mul(x, x), 0.5))), Tensor(r.normal(size=(2, 3)))


def _abs_case(r, i):
    sign = r.choice([-1.0, 1.0], size=(2, 4))
    return lambda x: T.sum_(T.abs_(x)), Tensor(sign * r.uniform(0.2, 1.5, size=(2, 4)))


def _shape_case(r, i):
    other = Tensor(r.normal(size=(2, 3)))
    fn = (lambda x: _sq(T.reshape(x, (6,))),
          lambda x: _sq(T.transpose(x)),
          lambda x: _sq(T.concat([x, other], axis=0)),
          lambda x: _sq(T.concat([other, x], axis=1)),
          lambda x: T.sum_(T.mean(T.mul(x, x), axis=1)))[i % 5]
    return fn, Tensor(r.normal(size=(2, 3)))


def _matmul_case(r, i):
    a = Tensor(r.normal(size=(3, 4)))
    b = Tensor(r.normal(size=(4, 2)))
    if i % 2 == 0:
        return lambda x: _sq(T.matmul(x, b)), a
    return lambda x: _sq(T.matmul(a, x)), b


def _linear_case(r, i):
    args = [Tensor(r.normal(size=(3, 4))), Tensor(r.normal(size=(4, 5))),
            Tensor(r.normal(size=3))]
    k = i % 3
    return lambda x: _sq(T.linear(*args[:k], x, *args[k + 1:])), args[k]


def _softmax_case(r, i):
    fn = (T.softmax_rows, T.softmax_cols)[i % 2]
    target = Tensor(r.normal(size=(3, 4)))
    return lambda x: _sq(T.sub(fn(x), target)), Tensor(r.normal(scale=3.0, size=(3, 4)))


def _spatial_attend_case(width):
    """Trials of `spatial_attend` on (2, width(r)) matrices, t and s in turn."""
    def case(r, i):
        shape = (2, width(r))
        other = Tensor(r.normal(size=shape))
        target = Tensor(r.normal(size=shape))
        scale = float(r.uniform(0.3, 1.5))
        if i % 2 == 0:
            fn = lambda x: T.spatial_attend(x, other, scale)
        else:
            fn = lambda x: T.spatial_attend(other, x, scale)
        return lambda x: _sq(T.sub(fn(x), target)), Tensor(r.normal(size=shape))
    return case


def _layer_norm_case(r, i):
    args = [Tensor(r.normal(size=(3, 5))), Tensor(r.uniform(0.5, 1.5, size=3)),
            Tensor(r.normal(size=3))]
    k = i % 3
    return lambda x: _sq(T.layer_norm_channels(*args[:k], x, *args[k + 1:])), args[k]


def _conv_case(op_name, w_shape, bias_size):
    """Trials of a convolution op of `tensor`: input, weight and bias in
    turn, and stride 1 and 2 against each."""
    def case(r, i):
        conv = getattr(T, op_name)
        args = [Tensor(r.normal(size=(2, 4, 4))), Tensor(r.normal(size=w_shape)),
                Tensor(r.normal(size=bias_size))]
        k, stride = i % 3, 1 + i % 2
        return lambda x: _sq(conv(*args[:k], x, *args[k + 1:], stride=stride)), args[k]
    return case


def _upsample_depthwise_case(r, i):
    args = [Tensor(r.normal(size=(2, 2, 3))), Tensor(r.normal(size=(2, 3, 3))),
            Tensor(r.normal(size=2))]
    k = i % 3
    return lambda x: _sq(T.upsample2x_depthwise_conv2d(*args[:k], x, *args[k + 1:])), args[k]


def _attention_case(attend):
    def case(r, i):
        t = FeatureMap(Tensor(r.normal(size=(2, 2, 2))))
        ref = Tensor(r.normal(size=(2, 2, 2)))
        return lambda x: _sq(T.sub(attend(t, FeatureMap(x)).values, ref)), \
            Tensor(r.normal(size=(2, 2, 2)))
    return case


def _projector_case(r, i):
    t_raw = FeatureMap(Tensor(r.normal(size=(3, 2, 2))))
    s_raw = FeatureMap(Tensor(r.normal(size=(2, 2, 2))))
    p_s = make_projector(2, 2, r)

    def fn(x):
        p_t = (x, Tensor(np.zeros(2)))
        s_f, s_fc, s_ft, t_f = cross_net_features(t_raw, s_raw, p_t, p_s)
        return T.add(_sq(T.sub(s_fc.values, t_f.values)), _sq(T.sub(s_ft.values, t_f.values)))
    return fn, Tensor(r.normal(size=(2, 3)))


def _gk_case(r, i):
    y = Tensor(r.normal(size=(2, 3)))
    return lambda x: gaussian_kernel_distance(x, y, 0.9), Tensor(r.normal(size=(2, 3)))


def _rec_case(r, i):
    target = Tensor(r.normal(size=(1, 3, 3)))
    offset = r.choice([-1.0, 1.0], size=(1, 3, 3)) * r.uniform(0.3, 1.0, size=(1, 3, 3))
    return lambda x: reconstruction_loss(x, target), Tensor(target.data + offset)


def _contrastive_case(r, i):
    phi = PhiExtractor(1, int(r.integers(1000)))
    pos = phi(Tensor(r.normal(size=(1, 8, 8))))
    negs = [phi(Tensor(r.normal(size=(1, 8, 8)))) for _ in range(2)]
    return lambda x: contrastive_loss_from_features(phi(x), pos, negs, 0.5), \
        Tensor(r.normal(size=(1, 8, 8)))


def _objective_case(r, i):
    # one leaf feeds the feature pipeline and, through a fixed linear map,
    # the reconstruction/contrastive images: the whole objective at once
    w = LossWeights(alpha2=0.3, alpha3=0.1, tau=0.5)
    phi = PhiExtractor(1, int(r.integers(1000)))
    t_raw = FeatureMap(Tensor(r.normal(size=(2, 2, 2))))
    p_t = make_projector(2, 2, r)
    p_s = make_projector(2, 2, r)
    mix = Tensor(r.normal(size=(8, 64)))
    target = Tensor(r.normal(size=(1, 8, 8)))
    pos = phi(Tensor(r.normal(size=(1, 8, 8))))
    negs = [phi(Tensor(r.normal(size=(1, 8, 8))))]

    def fn(x):
        gk = gk_feature_loss([cross_net_features(t_raw, FeatureMap(x), p_t, p_s)], w)
        image = T.reshape(T.matmul(T.reshape(x, (1, 8)), mix), (1, 8, 8))
        rec = reconstruction_loss(image, target)
        cl = contrastive_loss_from_features(phi(image), pos, negs, w.tau)
        return total_loss(rec, gk, cl, w)
    return fn, Tensor(r.normal(size=(2, 2, 2)))


def _net_case(r, i):
    cfg = ModelConfig([1], base_channels=4, input_channels=1)
    net = build_net(cfg, int(r.integers(1000)))
    # a fresh net's zero final projection blocks interior gradients
    net.params()["final.w"].data = r.normal(scale=0.2, size=(1, 4, 3, 3))
    img = Tensor(r.uniform(-1, 1, size=(1, 8, 8)))
    name = "lat.b0.attn.q.w"
    original = net.params()[name]

    def fn(x):
        net._params[name] = x
        try:
            out, _ = net.forward_with_features(img)
            return _sq(out)
        finally:
            net._params[name] = original
    return fn, Tensor(original.data.copy())


CHECKS = (
    ("add/broadcast", 8, _add_case),
    ("sub/mul/div", 10, _sub_mul_div_case),
    ("neg/pow/sqrt", 8, _neg_pow_case),
    ("exp/log", 8, _exp_log_case),
    ("abs (away from kink)", 4, _abs_case),
    ("gelu", 6, lambda r, i: (lambda x: T.sum_(T.gelu(x)), Tensor(r.normal(size=(3, 3))))),
    ("reshape/transpose/concat/mean", 8, _shape_case),
    ("upsample2x", 4, lambda r, i: (lambda x: _sq(T.upsample2x_nearest(x)),
                                    Tensor(r.normal(size=(2, 2, 3))))),
    ("matmul", 8, _matmul_case),
    ("linear (w/m/bias)", 6, _linear_case),
    ("softmax rows/cols", 8, _softmax_case),
    ("spatial_attend (t/s)", 8, _spatial_attend_case(lambda r: 3)),
    # one full block of columns (rows, backward) plus a ragged remainder
    ("spatial_attend (multi-block)", 4,
     _spatial_attend_case(lambda r: T.ATTEND_BLOCK + int(r.integers(1, T.ATTEND_BLOCK)))),
    ("layer_norm_channels", 6, _layer_norm_case),
    ("conv2d", 8, _conv_case("conv2d", (3, 2, 3, 3), 3)),
    ("depthwise_conv2d", 6, _conv_case("depthwise_conv2d", (2, 3, 3), 2)),
    ("upsample2x_depthwise_conv2d (x/w/bias)", 6, _upsample_depthwise_case),
    ("channel cross attention", 5, _attention_case(channel_cross_attention)),
    ("spatial cross attention", 5, _attention_case(spatial_cross_attention)),
    ("projector through interactions", 4, _projector_case),
    ("gaussian kernel distance", 6, _gk_case),
    ("reconstruction (mean L1)", 4, _rec_case),
    ("contrastive (tau=0.5)", 3, _contrastive_case),
    ("full distillation objective", 2, _objective_case),
    ("restoration net parameter slice", 2, _net_case),
)


def _run(seed: int, name: str, trials: int, case) -> CheckResult:
    rng = rng_for(seed, "gradsuite", name)
    worst = 0.0
    for i in range(trials):
        fn, x0 = case(rng, i)
        worst = max(worst, T.gradcheck(fn, x0))
    return CheckResult(name, trials, worst)


def run_gradcheck_suite(seed: int = 0) -> list[CheckResult]:
    """Every row of `CHECKS` at `seed`; >= 100 trials across every
    differentiable op."""
    return [_run(seed, *check) for check in CHECKS]


def total_trials(results: list[CheckResult]) -> int:
    return sum(r.trials for r in results)
