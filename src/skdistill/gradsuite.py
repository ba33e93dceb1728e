"""Seeded finite-difference audit of every differentiable op and loss.

Each check runs several random trials on small tensors and reports the
worst relative error between analytic and central-difference gradients.
The suite is the backing for the `gradcheck` CLI command; it is sized to
exceed one hundred trials total while staying fast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (
    FeatureMap,
    Projector,
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

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_rel_err < tol


def _sq(x: Tensor) -> Tensor:
    return T.sum_(T.mul(x, x))


def _run(name, trials, rng, make_fn_and_x0) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        fn, x0 = make_fn_and_x0(rng)
        worst = max(worst, T.gradcheck(fn, x0, eps=1e-5))
    return CheckResult(name, trials, worst)


def _elementwise_checks(rng) -> list[CheckResult]:
    results = []

    def add_case(r):
        col = Tensor(r.normal(size=(3, 1)))
        m = Tensor(r.normal(size=(3, 4)))
        return (lambda x: _sq(T.add(T.add(x, col), 0.5)), Tensor(r.normal(size=(3, 4)))) \
            if r.random() < 0.5 else \
            (lambda x: _sq(T.add(m, x)), Tensor(r.normal(size=(1, 4))))
    results.append(_run("add/broadcast", 8, rng, add_case))

    def sub_mul_div_case(r):
        y = Tensor(r.normal(size=(2, 5)) + 3.0)
        which = r.integers(3)
        if which == 0:
            return lambda x: _sq(T.sub(x, y)), Tensor(r.normal(size=(2, 5)))
        if which == 1:
            return lambda x: _sq(T.mul(x, y)), Tensor(r.normal(size=(2, 5)))
        return lambda x: _sq(T.div(x, y)), Tensor(r.normal(size=(2, 5)))
    results.append(_run("sub/mul/div", 10, rng, sub_mul_div_case))

    def neg_pow_case(r):
        base = Tensor(r.uniform(0.5, 2.0, size=6))
        if r.random() < 0.5:
            return lambda x: _sq(T.neg(x)), Tensor(r.normal(size=6))
        return lambda x: T.sum_(T.sqrt(T.mul(T.mul(x, x), 1.0)) + T.pow_(T.abs_(x) + base, 1.7)), \
            Tensor(r.uniform(0.5, 2.0, size=6))
    results.append(_run("neg/pow/sqrt", 8, rng, neg_pow_case))

    def exp_log_case(r):
        if r.random() < 0.5:
            return lambda x: T.sum_(T.exp(x)), Tensor(r.normal(size=(2, 3)))
        return lambda x: T.sum_(T.log(T.add(T.mul(x, x), 0.5))), Tensor(r.normal(size=(2, 3)))
    results.append(_run("exp/log", 8, rng, exp_log_case))

    def abs_case(r):
        sign = r.choice([-1.0, 1.0], size=(2, 4))
        x0 = Tensor(sign * r.uniform(0.2, 1.5, size=(2, 4)))
        return lambda x: T.sum_(T.abs_(x)), x0
    results.append(_run("abs (away from kink)", 4, rng, abs_case))

    results.append(_run("gelu", 6, rng,
                        lambda r: (lambda x: T.sum_(T.gelu(x)), Tensor(r.normal(size=(3, 3))))))
    return results


def _spatial_attend_cases(width):
    """Trials of `spatial_attend` on (2, width(r)) matrices, t and s in turn."""
    inputs = itertools.cycle(("t", "s"))

    def case(r):
        shape = (2, width(r))
        other = Tensor(r.normal(size=shape))
        target = Tensor(r.normal(size=shape))
        scale = float(r.uniform(0.3, 1.5))
        if next(inputs) == "t":
            fn = lambda x: T.spatial_attend(x, other, scale)
        else:
            fn = lambda x: T.spatial_attend(other, x, scale)
        return lambda x: _sq(T.sub(fn(x), target)), Tensor(r.normal(size=shape))
    return case


def _structural_checks(rng) -> list[CheckResult]:
    results = []

    def shape_case(r):
        which = r.integers(4)
        if which == 0:
            return lambda x: _sq(T.reshape(x, (6,))), Tensor(r.normal(size=(2, 3)))
        if which == 1:
            return lambda x: _sq(T.transpose(x)), Tensor(r.normal(size=(2, 3)))
        if which == 2:
            other = Tensor(r.normal(size=(2, 3)))
            return lambda x: _sq(T.concat([x, other], axis=0)), Tensor(r.normal(size=(2, 3)))
        return lambda x: T.sum_(T.mean(T.mul(x, x), axis=1)), Tensor(r.normal(size=(3, 4)))
    results.append(_run("reshape/transpose/concat/mean", 8, rng, shape_case))

    results.append(_run("upsample2x", 4, rng, lambda r: (
        lambda x: _sq(T.upsample2x_nearest(x)), Tensor(r.normal(size=(2, 2, 3))))))

    def matmul_case(r):
        b = Tensor(r.normal(size=(4, 2)))
        return lambda x: _sq(T.matmul(x, b)), Tensor(r.normal(size=(3, 4)))
    results.append(_run("matmul", 8, rng, matmul_case))

    def linear_case(r):
        w = Tensor(r.normal(size=(3, 4)))
        m = Tensor(r.normal(size=(4, 5)))
        bias = Tensor(r.normal(size=3))
        which = r.integers(3)
        if which == 0:
            return lambda x: _sq(T.linear(x, m, bias)), Tensor(r.normal(size=(3, 4)))
        if which == 1:
            return lambda x: _sq(T.linear(w, x, bias)), Tensor(r.normal(size=(4, 5)))
        return lambda x: _sq(T.linear(w, m, x)), Tensor(r.normal(size=3))
    results.append(_run("linear (w/m/bias)", 6, rng, linear_case))

    def softmax_case(r):
        fn = T.softmax_rows if r.random() < 0.5 else T.softmax_cols
        target = Tensor(r.normal(size=(3, 4)))
        return lambda x: _sq(T.sub(fn(x), target)), Tensor(r.normal(scale=3.0, size=(3, 4)))
    results.append(_run("softmax rows/cols", 8, rng, softmax_case))

    results.append(_run("spatial_attend (t/s)", 8, rng, _spatial_attend_cases(lambda r: 3)))

    def ln_case(r):
        gamma = Tensor(r.uniform(0.5, 1.5, size=3))
        beta = Tensor(r.normal(size=3))
        which = r.integers(3)
        if which == 0:
            return lambda x: _sq(T.layer_norm_channels(x, gamma, beta)), \
                Tensor(r.normal(size=(3, 5)))
        m = Tensor(r.normal(size=(3, 5)))
        if which == 1:
            return lambda x: _sq(T.layer_norm_channels(m, x, beta)), Tensor(r.uniform(0.5, 1.5, size=3))
        return lambda x: _sq(T.layer_norm_channels(m, gamma, x)), Tensor(r.normal(size=3))
    results.append(_run("layer_norm_channels", 6, rng, ln_case))

    def conv_case(r):
        stride = int(r.choice([1, 2]))
        w = Tensor(r.normal(size=(3, 2, 3, 3)))
        bias = Tensor(r.normal(size=3))
        which = r.integers(3)
        if which == 0:
            return lambda x: _sq(T.conv2d(x, w, bias, stride=stride)), \
                Tensor(r.normal(size=(2, 4, 4)))
        xin = Tensor(r.normal(size=(2, 4, 4)))
        if which == 1:
            return lambda x: _sq(T.conv2d(xin, x, bias, stride=stride)), \
                Tensor(r.normal(size=(3, 2, 3, 3)))
        return lambda x: _sq(T.conv2d(xin, w, x, stride=stride)), Tensor(r.normal(size=3))
    results.append(_run("conv2d", 8, rng, conv_case))

    def dw_case(r):
        stride = int(r.choice([1, 2]))
        w = Tensor(r.normal(size=(2, 3, 3)))
        bias = Tensor(r.normal(size=2))
        if r.random() < 0.5:
            return lambda x: _sq(T.depthwise_conv2d(x, w, bias, stride=stride)), \
                Tensor(r.normal(size=(2, 4, 4)))
        xin = Tensor(r.normal(size=(2, 4, 4)))
        return lambda x: _sq(T.depthwise_conv2d(xin, x, bias, stride=stride)), \
            Tensor(r.normal(size=(2, 3, 3)))
    results.append(_run("depthwise_conv2d", 6, rng, dw_case))
    return results


def _interaction_checks(rng) -> list[CheckResult]:
    results = []

    def channel_case(r):
        t = FeatureMap(Tensor(r.normal(size=(2, 2, 2))))
        ref = Tensor(r.normal(size=(2, 2, 2)))
        def fn(x):
            out = channel_cross_attention(t, FeatureMap(x))
            return _sq(T.sub(out.values, ref))
        return fn, Tensor(r.normal(size=(2, 2, 2)))
    results.append(_run("channel cross attention", 5, rng, channel_case))

    def spatial_case(r):
        t = FeatureMap(Tensor(r.normal(size=(2, 2, 2))))
        ref = Tensor(r.normal(size=(2, 2, 2)))
        def fn(x):
            out = spatial_cross_attention(t, FeatureMap(x))
            return _sq(T.sub(out.values, ref))
        return fn, Tensor(r.normal(size=(2, 2, 2)))
    results.append(_run("spatial cross attention", 5, rng, spatial_case))

    def projector_case(r):
        t_raw = FeatureMap(Tensor(r.normal(size=(3, 2, 2))))
        s_raw = FeatureMap(Tensor(r.normal(size=(2, 2, 2))))
        p_s = make_projector(2, 2, r)
        def fn(x):
            p_t = Projector(x, Tensor(np.zeros(2)))
            s_f, s_fc, s_ft, t_f = cross_net_features(t_raw, s_raw, p_t, p_s)
            return T.add(_sq(T.sub(s_fc.values, t_f.values)),
                         _sq(T.sub(s_ft.values, t_f.values)))
        return fn, Tensor(r.normal(size=(2, 3)))
    results.append(_run("projector through interactions", 4, rng, projector_case))
    return results


def _loss_checks(rng) -> list[CheckResult]:
    results = []

    def gk_case(r):
        y = Tensor(r.normal(size=(2, 3)))
        return lambda x: gaussian_kernel_distance(x, y, 0.9), Tensor(r.normal(size=(2, 3)))
    results.append(_run("gaussian kernel distance", 6, rng, gk_case))

    def rec_case(r):
        target = Tensor(r.normal(size=(1, 3, 3)))
        offset = Tensor(target.data + r.choice([-1.0, 1.0], size=(1, 3, 3))
                        * r.uniform(0.3, 1.0, size=(1, 3, 3)))
        return lambda x: reconstruction_loss(x, target), offset
    results.append(_run("reconstruction (mean L1)", 4, rng, rec_case))

    def cl_case(r):
        phi = PhiExtractor(1, int(r.integers(1000)))
        pos = phi(Tensor(r.normal(size=(1, 8, 8))))
        negs = [phi(Tensor(r.normal(size=(1, 8, 8)))) for _ in range(2)]
        return lambda x: contrastive_loss_from_features(phi(x), pos, negs, 0.5), \
            Tensor(r.normal(size=(1, 8, 8)))
    results.append(_run("contrastive (tau=0.5)", 3, rng, cl_case))

    def total_case(r):
        # one leaf feeds the feature pipeline and, through a fixed conv,
        # the reconstruction/contrastive images: the whole objective at once
        w = LossWeights(alpha1=0.5, alpha2=0.3, alpha3=0.1, tau=0.5)
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
    results.append(_run("full distillation objective", 2, rng, total_case))
    return results


def _model_checks(rng) -> list[CheckResult]:
    def net_case(r):
        cfg = ModelConfig([1], base_channels=4, unified_dim=4, input_channels=1)
        net = build_net(cfg, int(r.integers(1000)))
        # a fresh net's zero final projection blocks interior gradients
        net.params()["final.w"].data = r.normal(scale=0.2, size=(1, 4, 3, 3))
        img = Tensor(r.uniform(-1, 1, size=(1, 8, 8)))
        name = "enc1.b0.attn.q.w" if "enc1.b0.attn.q.w" in net.params() else "lat.b0.attn.q.w"
        original = net.params()[name]

        def fn(x):
            net._params[name] = x
            try:
                out, _ = net.forward_with_features(img)
                return _sq(out)
            finally:
                net._params[name] = original
        return fn, Tensor(original.data.copy())
    return [_run("restoration net parameter slice", 2, rng, net_case)]


def _multi_block_checks(rng) -> list[CheckResult]:
    # one full block of columns (rows, backward) plus a ragged remainder
    width = lambda r: T.ATTEND_BLOCK + int(r.integers(1, T.ATTEND_BLOCK))
    return [_run("spatial_attend (multi-block)", 4, rng, _spatial_attend_cases(width))]


def _upsample_depthwise_checks(rng) -> list[CheckResult]:
    inputs = itertools.cycle(("x", "w", "bias"))

    def case(r):
        x0 = Tensor(r.normal(size=(2, 2, 3)))
        w = Tensor(r.normal(size=(2, 3, 3)))
        bias = Tensor(r.normal(size=2))
        which = next(inputs)
        if which == "x":
            return lambda x: _sq(T.upsample2x_depthwise_conv2d(x, w, bias)), x0
        if which == "w":
            return lambda x: _sq(T.upsample2x_depthwise_conv2d(x0, x, bias)), w
        return lambda x: _sq(T.upsample2x_depthwise_conv2d(x0, w, x)), bias
    return [_run("upsample2x_depthwise_conv2d (x/w/bias)", 6, rng, case)]


def run_gradcheck_suite(seed: int = 0) -> list[CheckResult]:
    """All checks; >= 100 seeded trials across every differentiable op."""
    rng = rng_for(seed, "gradsuite")
    results: list[CheckResult] = []
    results.extend(_elementwise_checks(rng))
    results.extend(_structural_checks(rng))
    results.extend(_interaction_checks(rng))
    results.extend(_loss_checks(rng))
    results.extend(_model_checks(rng))
    # the groups below come last, in the order they were added, so the
    # groups above keep their draws
    results.extend(_multi_block_checks(rng))
    results.extend(_upsample_depthwise_checks(rng))
    return results


def total_trials(results: list[CheckResult]) -> int:
    return sum(r.trials for r in results)
