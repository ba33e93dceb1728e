"""Cross-net attention between teacher and student block features.

Teacher and student features are first projected into a shared channel
width, then mixed along two axes: a channel interaction built from the
C x C similarity of projected maps, and a spatial interaction built from
the N x N similarity of flattened pixel columns. The channel one returns
a map shaped like the student feature; the spatial one returns its kernel
distance from the teacher map, the one term of the loss that reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass
class FeatureMap:
    """A (C, H, W) activation plus its flattened (C, H*W) matrix view."""

    values: Tensor

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ShapeError(f"FeatureMap expects (C,H,W), got shape {self.values.shape}")
        if min(self.values.shape) < 1:
            raise ShapeError(f"FeatureMap extents must be >= 1, got {self.values.shape}")

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    @property
    def pixels(self) -> int:
        return self.height * self.width

    def matrix(self) -> Tensor:
        """Row-major (C, N) view; a reshape, never a reordering copy."""
        return T.reshape(self.values, (self.channels, self.pixels))


def make_projector(c_src: int, d_u: int, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """One tap's 1x1 map into the shared width: a (d_u, c_src) weight, a (d_u,) bias."""
    scale = 1.0 / math.sqrt(c_src)
    weight = Tensor(rng.normal(scale=scale, size=(d_u, c_src)), requires_grad=True)
    bias = Tensor(np.zeros(d_u), requires_grad=True)
    return weight, bias


def project(p: tuple[Tensor, Tensor], f: FeatureMap) -> FeatureMap:
    """Linear per-pixel channel map plus bias; `p` is a (weight, bias) pair.

    Frozen-teacher handling lives in the caller: teacher features are
    detached before being passed here, so only the projector itself (and,
    on the student path, the upstream network) receives gradients.
    """
    weight, bias = p
    if weight.shape[1] != f.channels:
        raise ShapeError(
            f"projector expects {weight.shape[1]} channels, feature has {f.channels}")
    m = T.linear(weight, f.matrix(), bias)
    return FeatureMap(T.reshape(m, (weight.shape[0], f.height, f.width)))


def _check_pair(t: FeatureMap, s: FeatureMap) -> None:
    if t.values.shape != s.values.shape:
        raise ShapeError(
            f"cross attention needs matching shapes, got {t.values.shape} and {s.values.shape}")


def channel_attention_matrix(q: Tensor, k: Tensor) -> Tensor:
    """softmax_rows(q k^T / sqrt(N)) for (C, N) matrices: the row-stochastic
    attention of q's channels over k's. It is the transposed channel
    attention of Restormer (Zamir et al. 2022), which the nets run as their
    self-attention and the cross-net channel interaction runs with teacher
    queries over student keys."""
    logits = T.mul(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    return T.softmax_rows(logits)


def channel_cross_attention(t: FeatureMap, s: FeatureMap) -> FeatureMap:
    _check_pair(t, s)
    a = channel_attention_matrix(t.matrix(), s.matrix())
    out = T.matmul(a, s.matrix())
    return FeatureMap(T.reshape(out, s.values.shape))


def spatial_cross_attention(t: FeatureMap, s: FeatureMap, sigma: float) -> Tensor:
    """The kernel distance of the spatial interaction from the teacher map:
    1 - exp(-mean((S B - T)^2) / (2 sigma^2)), B the (N, N) attention over
    pixel positions with temperature lambda = sqrt(C), normalized over each
    column so that each column of S B is a convex combination of student
    pixel columns. S B feeds only this term of the kernel loss, so one
    blocked engine op, `tensor.spatial_kernel_distance`, runs both and its
    gradient without holding B."""
    _check_pair(t, s)
    m = t.matrix()
    return T.spatial_kernel_distance(m, s.matrix(), m, 1.0 / math.sqrt(t.channels), sigma)


def cross_net_features(t_raw: FeatureMap, s_raw: FeatureMap,
                       p_t: tuple[Tensor, Tensor], p_s: tuple[Tensor, Tensor],
                       sigma: float) -> tuple[FeatureMap, FeatureMap, Tensor, FeatureMap]:
    """Project a raw teacher/student pair and run both interactions.

    Returns (s_f, s_fc, gk_ft, t_f): gk_ft is the spatial interaction's
    kernel distance at width `sigma`, the only form in which the loss reads
    it. The raw teacher map is detached first, so the teacher network stays
    frozen while its projector still trains.
    """
    width_t, width_s = p_t[0].shape[0], p_s[0].shape[0]
    if width_t != width_s:
        raise ConfigError(f"projector widths differ: teacher {width_t}, student {width_s}")
    t_f = project(p_t, FeatureMap(t_raw.values.detach()))
    s_f = project(p_s, s_raw)
    s_fc = channel_cross_attention(t_f, s_f)
    gk_ft = spatial_cross_attention(t_f, s_f, sigma)
    return s_f, s_fc, gk_ft, t_f
