"""Training objectives: kernel-space feature loss, contrastive output loss,
L1 reconstruction, and their weighted total.

The contrastive term is evaluated in the log domain (log-sum-exp over
cosine/tau logits), which is algebraically identical to the ratio form but
stays finite for arbitrarily small temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .attention import FeatureMap
from .errors import ConfigError, DegenerateFeatureError, NonFiniteError, RangeError, ShapeError
from .seeding import rng_for
from .tensor import Tensor

# the paper's alpha1, the weight of the kernel loss's two attention-mixed terms
ALPHA1 = 0.5


@dataclass
class LossWeights:
    """Every configured knob of the distillation objective; `unified_dim` is
    the shared width of the per-tap projectors that the kernel loss compares
    in. The mixed-term weight is the constant `ALPHA1`."""

    alpha2: float = 0.2
    alpha3: float = 0.2
    sigma: float = 1.0
    tau: float = 1e-6
    unified_dim: int = 8

    def __post_init__(self):
        if min(self.alpha2, self.alpha3) < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.unified_dim < 1:
            raise ConfigError(f"unified_dim must be >= 1, got {self.unified_dim}")


def gaussian_kernel_distance(x, y, sigma: float = 1.0) -> Tensor:
    """1 - exp(-d2 / (2 sigma^2)) with d2 the mean over elements of (x - y)^2.

    The paper's d2 is the plain sum ||x - y||^2; on 32x32 feature maps that
    saturates every kernel term at 1, which passes no gradient.
    """
    x, y = T.as_tensor(x), T.as_tensor(y)
    if x.shape != y.shape:
        raise ShapeError(f"kernel distance needs matching shapes, got {x.shape} and {y.shape}")
    if sigma <= 0:
        raise RangeError(f"sigma must be positive, got {sigma}")
    diff = T.sub(x, y)
    d2 = T.mul(T.sum_(T.mul(diff, diff)), 1.0 / x.size)
    return T.sub(1.0, T.exp(T.mul(d2, -1.0 / (2.0 * sigma * sigma))))


def gk_block_loss(s_f: FeatureMap, s_fc: FeatureMap, s_ft: FeatureMap,
                  t_f: FeatureMap, w: LossWeights) -> Tensor:
    """Kernel loss for one distilled block: direct term plus the two
    attention-mixed terms scaled by ALPHA1."""
    gk = lambda a, b: gaussian_kernel_distance(a.values, b.values, w.sigma)
    mixed = T.add(gk(s_fc, t_f), gk(s_ft, t_f))
    return T.add(gk(s_f, t_f), T.mul(mixed, ALPHA1))


def gk_feature_loss(blocks: Sequence[tuple[FeatureMap, FeatureMap, FeatureMap, FeatureMap]],
                    w: LossWeights) -> Tensor:
    """Sum of per-block kernel losses over the distilled blocks, in order;
    each block is the `(s_f, s_fc, s_ft, t_f)` of `cross_net_features`."""
    if not blocks:
        raise ConfigError("gk_feature_loss needs at least one block")
    total = gk_block_loss(*blocks[0], w)
    for block in blocks[1:]:
        total = T.add(total, gk_block_loss(*block, w))
    return total


class PhiExtractor:
    """Frozen seeded conv stack standing in for a pretrained feature net.

    Three stride-2 stages (widths 8, 16, 32) with a smooth nonlinearity;
    weights are deterministic in the seed and never receive gradients.
    """

    widths = (8, 16, 32)

    def __init__(self, in_channels: int = 1, seed: int = 0):
        rng = rng_for(seed, "phi")
        self.in_channels = in_channels
        self.stages = []
        c_prev = in_channels
        for c_out in self.widths:
            scale = 1.0 / np.sqrt(9.0 * c_prev)
            w = Tensor(rng.normal(scale=scale, size=(c_out, c_prev, 3, 3)))
            b = Tensor(np.zeros(c_out))
            self.stages.append((w, b))
            c_prev = c_out

    def __call__(self, image: Tensor) -> Tensor:
        if image.ndim != 3 or image.shape[0] != self.in_channels:
            raise ShapeError(
                f"phi expects ({self.in_channels},H,W), got shape {image.shape}")
        h = image
        for w, b in self.stages:
            h = T.gelu(T.conv2d(h, w, b, stride=2))
        return T.reshape(h, (h.size,))


def contrastive_loss_from_features(anchor: Tensor, positive: Tensor,
                                   negative_feats: Sequence[Tensor],
                                   tau: float) -> Tensor:
    """Contrastive objective on phi features: pull the anchor toward the
    positive and away from the negatives. Gradient reaches whatever the
    features were computed from; the trainer detaches the positive and
    negative images so only the anchor (the student output) learns.

    The logits are cos(anchor, feat) / tau for the positive and then each
    negative, and the loss is -log of the positive's share of their softmax
    mass, computed as logsumexp(logits) - positive logit. A zero-norm
    feature vector raises DegenerateFeatureError."""
    if tau <= 0:
        raise RangeError(f"tau must be positive, got {tau}")
    if not negative_feats:
        raise ConfigError("contrastive loss needs at least one negative")
    inv_tau = 1.0 / tau

    def logit(feat: Tensor) -> Tensor:
        if feat.shape != anchor.shape:
            raise ShapeError(
                f"cosine needs matching shapes, got {anchor.shape} and {feat.shape}")
        nu = T.sqrt(T.sum_(T.mul(anchor, anchor)))
        nv = T.sqrt(T.sum_(T.mul(feat, feat)))
        if float(nu.data) == 0.0 or float(nv.data) == 0.0:
            raise DegenerateFeatureError("zero-norm feature vector in cosine similarity")
        return T.mul(T.div(T.sum_(T.mul(anchor, feat)), T.mul(nu, nv)), inv_tau)

    l_pos = logit(positive)
    l_neg = [logit(feat) for feat in negative_feats]
    logits = T.concat([T.reshape(l, (1,)) for l in (l_pos, *l_neg)])
    shift = float(np.max(logits.data))
    lse = T.add(T.log(T.sum_(T.exp(T.sub(logits, shift)))), shift)
    return T.sub(lse, l_pos)


def reconstruction_loss(s_r: Tensor, g: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    s_r, g = T.as_tensor(s_r), T.as_tensor(g)
    if s_r.shape != g.shape:
        raise ShapeError(f"reconstruction needs matching shapes, got {s_r.shape} and {g.shape}")
    return T.mean(T.abs_(T.sub(g, s_r)))


def total_loss(l_rec, l_gk, l_cl, w: LossWeights) -> Tensor:
    """l_rec + alpha2 * l_gk + alpha3 * l_cl."""
    parts = [T.as_tensor(v) for v in (l_rec, l_gk, l_cl)]
    for name, part in zip(("l_rec", "l_gk", "l_cl"), parts):
        if not np.all(np.isfinite(part.data)):
            raise NonFiniteError(f"total_loss received non-finite {name}")
    return T.add(parts[0], T.add(T.mul(parts[1], w.alpha2), T.mul(parts[2], w.alpha3)))
