"""Synthetic clean-image corpus, degradations, normalization, batching.

Every image is a pure function of (base seed, index), so corpora are
reproducible and any index range can be made on its own (the held-out block
follows the training corpus). Degradations are identity at zero strength by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, RangeError, ShapeError
from .metrics import gaussian_1d, separable_filter_valid
from .seeding import rng_for

TASKS = ("denoise", "deblur", "derain")
# rain streaks: mean angle from the horizontal in degrees, and mean length in pixels
RAIN_ANGLE = 70.0
RAIN_LENGTH = 9.0
# numpy refuses the (2, n, n) int64 pixel grid with a ValueError, not a
# MemoryError, once it passes the maximum array size near n = 7.6e8; below
# this cap a size too large to allocate fails as a MemoryError (exit 1)
MAX_PATCH_SIZE = 10**8


@dataclass
class CorpusSpec:
    """Knobs for corpus generation and the three degradations."""

    count: int = 64
    patch_size: int = 32
    channels: int = 1
    base_seed: int = 0
    task: str = "denoise"
    noise_sigma: float = 0.1
    blur_sigma: float = 1.2
    rain_density: float = 0.02

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"corpus count must be >= 1, got {self.count}")
        if not 1 <= self.patch_size <= MAX_PATCH_SIZE:
            raise ConfigError(
                f"patch size must be in [1, {MAX_PATCH_SIZE}], got {self.patch_size}")
        if self.channels not in (1, 3):
            raise ConfigError(f"channels must be 1 or 3, got {self.channels}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        # zero strength is the identity degradation; negative strengths either
        # crash numpy or silently write undegraded pairs (`not >=` refuses NaN)
        for name in ("noise_sigma", "blur_sigma", "rain_density"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class Sample:
    clean: np.ndarray
    degraded: np.ndarray
    task: str


def _smooth_gradient(rng: np.random.Generator, size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    a, b = rng.uniform(-0.35, 0.35, size=2)
    base = 0.5 + a * (xx - 0.5) + b * (yy - 0.5)
    phase = rng.uniform(0, 2 * math.pi)
    freq = rng.uniform(0.5, 2.0)
    base += 0.08 * np.sin(2 * math.pi * freq * xx + phase) * np.cos(2 * math.pi * freq * yy)
    return base


def _add_shapes(rng: np.random.Generator, img: np.ndarray) -> None:
    size = img.shape[0]
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(rng.integers(2, 6)):
        value = rng.uniform(0.15, 0.85)
        alpha = rng.uniform(0.4, 0.9)
        if rng.random() < 0.5:
            cy, cx = rng.uniform(0, size, size=2)
            r = rng.uniform(size / 10, size / 3)
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        else:
            y0, x0 = rng.integers(0, size, size=2)
            hh, ww = rng.integers(size // 8 + 1, size // 2 + 1, size=2)
            mask = (yy >= y0) & (yy < y0 + hh) & (xx >= x0) & (xx < x0 + ww)
        img[mask] = (1 - alpha) * img[mask] + alpha * value


def _band_limited_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    coarse = rng.normal(scale=1.0, size=(max(size // 4, 1),) * 2)
    fine = np.repeat(np.repeat(coarse, 4, axis=0), 4, axis=1)[:size, :size]
    if fine.shape != (size, size):
        pad_y, pad_x = size - fine.shape[0], size - fine.shape[1]
        fine = np.pad(fine, ((0, pad_y), (0, pad_x)), mode="edge")
    return fine


def make_clean_image(spec: CorpusSpec, index: int) -> np.ndarray:
    """Procedural (C, H, W) image in [0, 1], deterministic per (seed, index)."""
    rng = rng_for(spec.base_seed, "clean", index)
    channels = []
    for _ in range(spec.channels):
        img = _smooth_gradient(rng, spec.patch_size)
        _add_shapes(rng, img)
        img += 0.05 * _band_limited_noise(rng, spec.patch_size)
        channels.append(img)
    return np.clip(np.stack(channels), 0.0, 1.0)


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge padding, taps out to 3 sigma; the
    identity for sigma <= 0."""
    if sigma <= 0:
        return img.copy()
    radius = max(int(math.ceil(3.0 * sigma)), 1)
    padded = np.pad(img, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    return separable_filter_valid(padded, gaussian_1d(2 * radius + 1, sigma))


def _rain(img: np.ndarray, rng: np.random.Generator, density: float) -> np.ndarray:
    _, h, w = img.shape
    n_streaks = int(round(density * h * w / RAIN_LENGTH))
    layer = np.zeros((h, w))
    for _ in range(n_streaks):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ang = math.radians(RAIN_ANGLE + rng.normal(scale=3.0))
        seg = RAIN_LENGTH * rng.uniform(0.6, 1.4)
        brightness = rng.uniform(0.2, 0.6)
        steps = max(int(seg * 2), 2)
        for t in np.linspace(-seg / 2, seg / 2, steps):
            y = cy + t * math.cos(ang)
            x = cx + t * math.sin(ang)
            iy, ix = int(round(y)), int(round(x))
            if 0 <= iy < h and 0 <= ix < w:
                # gaussian profile along the streak
                layer[iy, ix] = max(layer[iy, ix],
                                    brightness * math.exp(-(2.0 * t / seg) ** 2))
    return img + layer[None, :, :]


def degrade(clean: np.ndarray, spec: CorpusSpec, seed: int) -> np.ndarray:
    """Apply the spec's degradation; deterministic per seed; output clipped to [0, 1]."""
    rng = rng_for(seed, "degrade", spec.task)
    if spec.task == "denoise":
        out = clean + rng.normal(scale=spec.noise_sigma, size=clean.shape)
    elif spec.task == "deblur":
        out = _blur(clean, spec.blur_sigma)
    else:
        out = _rain(clean, rng, spec.rain_density)
    return np.clip(out, 0.0, 1.0)


def make_samples(spec: CorpusSpec, *, first_index: int = 0,
                 count: int | None = None) -> list[Sample]:
    """Paired clean/degraded samples for the configured task, for indices
    [first_index, first_index + count); `count` defaults to the spec's."""
    n = spec.count if count is None else count
    if n < 1:
        raise ConfigError(f"corpus count must be >= 1, got {n}")
    samples = []
    for idx in range(first_index, first_index + n):
        clean = make_clean_image(spec, idx)
        seed = int(rng_for(spec.base_seed, "sample", idx).integers(0, 2**63 - 1))
        samples.append(Sample(clean=clean,
                              degraded=degrade(clean, spec, seed),
                              task=spec.task))
    return samples


def normalize(img: np.ndarray) -> np.ndarray:
    """[0, 1] -> [-1, 1] via 2x - 1; NaN is out of range."""
    img = np.asarray(img, dtype=np.float64)
    if not (img.min() >= 0.0 and img.max() <= 1.0):
        raise RangeError(f"normalize expects [0,1], got [{img.min()}, {img.max()}]")
    return 2.0 * img - 1.0


def denormalize(img: np.ndarray) -> np.ndarray:
    """[-1, 1] -> [0, 1]; exact inverse of normalize on representable values."""
    img = np.asarray(img, dtype=np.float64)
    return (img + 1.0) / 2.0


def batch_indices(n: int, batch_size: int, seed: int, epoch: int) -> list[list[int]]:
    """Seeded shuffle of range(n) cut into full batches; partial batch dropped."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if n < 1:
        raise ConfigError("empty corpus")
    order = rng_for(seed, "batches", epoch).permutation(n)
    n_batches = n // batch_size
    return [order[i * batch_size:(i + 1) * batch_size].tolist() for i in range(n_batches)]


def write_image(path: str | Path, img: np.ndarray) -> None:
    """8-bit binary PGM (1 channel) or PPM (3 channels) from a [0,1] image."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ShapeError(f"write_image expects (1|3, H, W), got shape {img.shape}")
    c, h, w = img.shape
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    payload = data[0].tobytes() if c == 1 else np.moveaxis(data, 0, 2).tobytes()
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(payload)


def read_image(path: str | Path) -> np.ndarray:
    """Read a binary PGM/PPM written by write_image; returns (C, H, W) in [0,1]."""
    raw = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos >= len(raw):
            raise ConfigError(f"image header truncated after {len(fields)} of 4 fields")
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    magic = fields[0]
    if magic not in (b"P5", b"P6"):
        raise ConfigError(f"unsupported image magic {magic!r}")
    # the digit bound also keeps int() under Python's int-string length limit
    if not all(f.isdigit() and len(f) <= 9 for f in fields[1:]):
        raise ConfigError("image header fields must be decimal integers of at most 9 digits, "
                          f"got {[f[:12] for f in fields[1:]]!r}")
    w, h, maxval = (int(f) for f in fields[1:])
    if w < 1 or h < 1:
        raise ConfigError(f"image extents must be >= 1, got {w}x{h}")
    if maxval != 255:
        raise ConfigError(f"only 8-bit images supported, got maxval {maxval}")
    pos += 1  # single whitespace after maxval
    channels = 1 if magic == b"P5" else 3
    expected = w * h * channels
    available = len(raw) - pos
    if available < expected:
        raise ConfigError(f"image payload truncated: {available} < {expected} bytes")
    payload = np.frombuffer(raw, dtype=np.uint8, count=expected, offset=pos)
    if channels == 1:
        data = payload.reshape(1, h, w)
    else:
        data = np.moveaxis(payload.reshape(h, w, 3), 2, 0)
    return data.astype(np.float64) / 255.0
