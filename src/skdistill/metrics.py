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


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Normalized 2-D Gaussian weights."""
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    one_d = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    window = np.outer(one_d, one_d)
    return window / window.sum()


def _windowed_stats(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Valid-mode weighted means of x for every window position."""
    size = window.shape[0]
    h, w = x.shape
    out = np.zeros((h - size + 1, w - size + 1))
    for di in range(size):
        for dj in range(size):
            out += window[di, dj] * x[di:di + h - size + 1, dj:dj + w - size + 1]
    return out


def _ssim_single(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    window = gaussian_window()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_a = _windowed_stats(a, window)
    mu_b = _windowed_stats(b, window)
    var_a = _windowed_stats(a * a, window) - mu_a * mu_a
    var_b = _windowed_stats(b * b, window) - mu_b * mu_b
    cov = _windowed_stats(a * b, window) - mu_a * mu_b
    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
        ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(ssim_map.mean())


def ssim(a, b, data_range: float = 1.0) -> float:
    """Mean structural similarity over 11x11 Gaussian windows."""
    a, b = _check_pair(a, b)
    if data_range <= 0:
        raise RangeError(f"data_range must be positive, got {data_range}")
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    if a.ndim != 3:
        raise ShapeError(f"ssim expects (C,H,W) or (H,W), got shape {a.shape}")
    if a.shape[1] < SSIM_WINDOW or a.shape[2] < SSIM_WINDOW:
        raise ShapeError(
            f"image {a.shape[1]}x{a.shape[2]} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    scores = [_ssim_single(a[c], b[c], data_range) for c in range(a.shape[0])]
    return float(np.mean(scores))
