"""Full-reference image quality metrics.

Images are channel-first (C, H, W) float arrays. SSIM follows the original
convention: 11x11 Gaussian window with sigma 1.5, C1 = (0.01 L)^2,
C2 = (0.03 L)^2, mean over valid windows; multichannel inputs average the
per-channel scores.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError, RangeError, ShapeError

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"metric inputs differ in shape: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteError("metric inputs hold NaN or Inf")
    return a, b


def psnr(a, b, data_range: float = 1.0) -> float:
    """10 log10(range^2 / MSE), capped at 100 dB (exactly 100 for zero MSE)."""
    a, b = _check_pair(a, b)
    if data_range <= 0:
        raise RangeError(f"data_range must be positive, got {data_range}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(data_range * data_range / mse), PSNR_CAP_DB)


def gaussian_1d(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Normalized 1-D Gaussian weights."""
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    one_d = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    return one_d / one_d.sum()


def separable_filter_valid(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-mode filter of each (H, W) plane of x by the window outer(g, g).

    The window is separable, so it runs as one pass of the 1-D weights g
    along rows and one along columns: 2 len(g) taps per output instead of
    len(g)^2. SSIM's Gaussian means (Wang et al., IEEE TIP 2004) and the
    deblur corpus's blur both run here."""
    size = len(g)
    h_out, w_out = x.shape[1] - size + 1, x.shape[2] - size + 1
    rows = g[0] * x[:, :, :w_out]
    for k in range(1, size):
        rows += g[k] * x[:, :, k:k + w_out]
    out = g[0] * rows[:, :h_out]
    for k in range(1, size):
        out += g[k] * rows[:, k:k + h_out]
    return out


def ssim(a, b, data_range: float = 1.0) -> float:
    """Mean structural similarity over 11x11 Gaussian windows."""
    a, b = _check_pair(a, b)
    if data_range <= 0:
        raise RangeError(f"data_range must be positive, got {data_range}")
    if a.ndim != 3:
        raise ShapeError(f"ssim expects (C,H,W), got shape {a.shape}")
    if a.shape[1] < SSIM_WINDOW or a.shape[2] < SSIM_WINDOW:
        raise ShapeError(
            f"image {a.shape[1]}x{a.shape[2]} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    stats = separable_filter_valid(np.concatenate([a, b, a * a, b * b, a * b]), gaussian_1d())
    mu_a, mu_b, e_aa, e_bb, e_ab = np.split(stats, 5)
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
        ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(np.mean(ssim_map.mean(axis=(1, 2))))
