"""Toy encoder-decoder restoration networks with per-level feature taps.

Structure: a U-shaped net with len(level_layers) levels; channels double at
every encoder level and halve back up the decoder. Each level is a dense
group: block j fuses the level input plus all previous block outputs with a
1x1 map, then applies layer-normalized channel self-attention and a
pointwise feed-forward (expansion 2), both residual. Downsampling is a
depthwise-separable strided 3x3; upsampling is nearest-neighbor + depthwise
3x3, run as the one op `tensor.upsample2x_depthwise_conv2d`, with the
encoder skip concatenated and fused back by a 1x1 map. The
final 3x3 projection is zero-initialized so a fresh net is the identity
(global residual).

`param_layout` lists every parameter with its shape and init rule, once:
`build_net` fills it with draws from the seed, `RestorationNet.from_state`
with given arrays (a checkpoint), drawing nothing.

`count_params_flops` walks the same layout arithmetically and must agree
exactly with an instrumented forward trace (1 MAC = 2 FLOPs; only matmuls
and convolutions count). Each spec carries the level at whose resolution
it is applied, N = (h >> level-1) * (w >> level-1) pixels. A weight (2 or
more dimensions) costs its size x N MACs, and each channel self-attention
adds q k^T and A v, 2 C^2 N = 2 x size(attn.q.w) x N; biases and norms
are free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import tensor as T
from .attention import FeatureMap
from .configdict import DictConfig
from .errors import ConfigError, NonFiniteError, ShapeError
from .seeding import rng_for
from .tensor import Tensor

FFN_EXPANSION = 2


@dataclass
class ModelConfig(DictConfig):
    """Per-level block counts plus channel widths."""

    level_layers: list[int] = field(default_factory=lambda: [1, 1])
    base_channels: int = 8
    input_channels: int = 1

    def __post_init__(self):
        if not self.level_layers:
            raise ConfigError("level_layers must be non-empty")
        if any(int(n) < 1 for n in self.level_layers):
            raise ConfigError(f"all level layer counts must be >= 1, got {self.level_layers}")
        self.level_layers = [int(n) for n in self.level_layers]
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.input_channels not in (1, 3):
            raise ConfigError(f"input_channels must be 1 or 3, got {self.input_channels}")

    @property
    def levels(self) -> int:
        return len(self.level_layers)

    def channels_at(self, level: int) -> int:
        """Width of 1-based level: doubles per encoder level."""
        return self.base_channels * (2 ** (level - 1))

    @property
    def spatial_divisor(self) -> int:
        return 2 ** (self.levels - 1)

    def tap_channels(self) -> list[int]:
        """Widths of the feature taps in `forward_with_features` order: the
        encoder levels, the latent, then the decoder levels."""
        encoder = [self.channels_at(level) for level in range(1, self.levels + 1)]
        return encoder + encoder[-2::-1]


def compress_config(teacher: ModelConfig, layer_scale: list[int],
                    channels: int) -> ModelConfig:
    """Student config with reduced per-level depths and base width."""
    if len(layer_scale) != teacher.levels:
        raise ConfigError(
            f"layer_scale has {len(layer_scale)} entries, teacher has {teacher.levels} levels")
    for got, limit in zip(layer_scale, teacher.level_layers):
        if got > limit:
            raise ConfigError(f"student layers {layer_scale} exceed teacher {teacher.level_layers}")
    if channels > teacher.base_channels:
        raise ConfigError(
            f"student base channels {channels} exceed teacher {teacher.base_channels}")
    return ModelConfig(level_layers=list(layer_scale), base_channels=channels,
                       input_channels=teacher.input_channels)


class ParamSpec(NamedTuple):
    """One parameter of the layout and the rule that initialises it."""

    name: str
    shape: tuple[int, ...]
    init: str          # "normal" (draw with std `scale`), "zeros" or "ones"
    scale: float = 0.0
    level: int = 1     # 1-based level at whose resolution it is applied


def _conv3x3(name: str, c_in: int, c_out: int, zero: bool = False) -> Iterator[ParamSpec]:
    if zero:
        yield ParamSpec(f"{name}.w", (c_out, c_in, 3, 3), "zeros")
    else:
        yield ParamSpec(f"{name}.w", (c_out, c_in, 3, 3), "normal", 1.0 / math.sqrt(9.0 * c_in))
    yield ParamSpec(f"{name}.b", (c_out,), "zeros")


def _dw3x3(name: str, c: int, level: int) -> Iterator[ParamSpec]:
    yield ParamSpec(f"{name}.w", (c, 3, 3), "normal", 1.0 / 3.0, level)
    yield ParamSpec(f"{name}.b", (c,), "zeros", level=level)


def _pw(name: str, c_in: int, c_out: int, level: int) -> Iterator[ParamSpec]:
    yield ParamSpec(f"{name}.w", (c_out, c_in), "normal", 1.0 / math.sqrt(c_in), level)
    yield ParamSpec(f"{name}.b", (c_out,), "zeros", level=level)


def _ln(name: str, c: int) -> Iterator[ParamSpec]:
    yield ParamSpec(f"{name}.g", (c,), "ones")
    yield ParamSpec(f"{name}.b", (c,), "zeros")


def _group(prefix: str, blocks: int, c: int, level: int) -> Iterator[ParamSpec]:
    for j in range(blocks):
        base = f"{prefix}.b{j}"
        yield from _pw(f"{base}.fuse", (j + 1) * c, c, level)
        yield from _ln(f"{base}.ln1", c)
        for head in ("q", "k", "v", "o"):
            yield from _pw(f"{base}.attn.{head}", c, c, level)
        yield from _ln(f"{base}.ln2", c)
        yield from _pw(f"{base}.ffn.w1", c, FFN_EXPANSION * c, level)
        yield from _pw(f"{base}.ffn.w2", FFN_EXPANSION * c, c, level)


def param_layout(cfg: ModelConfig) -> Iterator[ParamSpec]:
    """Every parameter of the net for `cfg`, in initialisation (and draw) order."""
    c1 = cfg.base_channels
    yield from _conv3x3("embed", cfg.input_channels, c1)
    for level in range(1, cfg.levels):
        c = cfg.channels_at(level)
        yield from _group(f"enc{level}", cfg.level_layers[level - 1], c, level)
        yield from _dw3x3(f"down{level}.dw", c, level + 1)
        yield from _pw(f"down{level}.pw", c, 2 * c, level + 1)
    yield from _group("lat", cfg.level_layers[-1], cfg.channels_at(cfg.levels), cfg.levels)
    for level in range(cfg.levels - 1, 0, -1):
        c = cfg.channels_at(level)
        yield from _dw3x3(f"up{level}.dw", 2 * c, level)
        yield from _pw(f"up{level}.fuse", 3 * c, c, level)
        yield from _group(f"dec{level}", cfg.level_layers[level - 1], c, level)
    yield from _conv3x3("final", c1, cfg.input_channels, zero=True)


def _initial_value(spec: ParamSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.init == "normal":
        return rng.normal(scale=spec.scale, size=spec.shape)
    return (np.ones if spec.init == "ones" else np.zeros)(spec.shape)


class RestorationNet:
    """Parameter container plus the forward pass described above.

    `build_net` draws fresh parameters; `from_state` loads given ones.
    """

    def __init__(self, cfg: ModelConfig, arrays: dict[str, np.ndarray], requires_grad: bool):
        self.cfg = cfg
        self._params = {name: Tensor(a, requires_grad=requires_grad)
                        for name, a in arrays.items()}

    @classmethod
    def from_state(cls, cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> "RestorationNet":
        """Frozen net for `cfg` over `arrays`, in layout order; draws no random
        numbers. Names and shapes must match the layout exactly and values
        must be finite. A float64 array is shared, not copied: its parameter
        is a read-only view of it, so the net never writes into `arrays`.
        Other dtypes are converted."""
        shapes = {spec.name: spec.shape for spec in param_layout(cfg)}
        missing = set(shapes) - set(arrays)
        extra = set(arrays) - set(shapes)
        if missing or extra:
            raise ConfigError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        state = {}
        for name, shape in shapes.items():
            arr = np.asarray(arrays[name], dtype=np.float64).view()
            if arr.shape != shape:
                raise ConfigError(f"parameter {name} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"parameter {name} holds NaN or Inf")
            arr.flags.writeable = False
            state[name] = arr
        return cls(cfg, state, requires_grad=False)

    # -- parameter access ---------------------------------------------------

    def params(self) -> dict[str, Tensor]:
        return self._params

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self._params.items()}

    # -- forward helpers ----------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self._params[name]

    def _pw(self, name: str, m: Tensor) -> Tensor:
        return T.linear(self._p(f"{name}.w"), m, self._p(f"{name}.b"))

    def _ln(self, name: str, m: Tensor) -> Tensor:
        return T.layer_norm_channels(m, self._p(f"{name}.g"), self._p(f"{name}.b"))

    def _attn(self, base: str, m: Tensor) -> Tensor:
        q = self._pw(f"{base}.attn.q", m)
        k = self._pw(f"{base}.attn.k", m)
        v = self._pw(f"{base}.attn.v", m)
        logits = T.mul(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(m.shape[1]))
        mixed = T.matmul(T.softmax_rows(logits), v)
        return self._pw(f"{base}.attn.o", mixed)

    def _ffn(self, base: str, m: Tensor) -> Tensor:
        hidden = T.gelu(self._pw(f"{base}.ffn.w1", m))
        return self._pw(f"{base}.ffn.w2", hidden)

    def _group(self, prefix: str, blocks: int, m: Tensor) -> Tensor:
        produced = [m]
        for j in range(blocks):
            base = f"{prefix}.b{j}"
            cat = produced[0] if len(produced) == 1 else T.concat(produced, axis=0)
            u = self._pw(f"{base}.fuse", cat)
            u = T.add(u, self._attn(base, self._ln(f"{base}.ln1", u)))
            u = T.add(u, self._ffn(base, self._ln(f"{base}.ln2", u)))
            produced.append(u)
        return produced[-1]

    # -- forward --------------------------------------------------------------

    def forward_with_features(self, x: Tensor) -> tuple[Tensor, list[FeatureMap]]:
        cfg = self.cfg
        if x.ndim != 3 or x.shape[0] != cfg.input_channels:
            raise ShapeError(
                f"expected input ({cfg.input_channels},H,W), got shape {x.shape}")
        _, h, w = x.shape
        div = cfg.spatial_divisor
        if h % div or w % div:
            raise ShapeError(
                f"spatial extents {h}x{w} must be divisible by {div} "
                f"for {cfg.levels} levels")
        feats: list[FeatureMap] = []
        skips: list[Tensor] = []
        cur = T.conv2d(x, self._p("embed.w"), self._p("embed.b"))
        ch, cw = h, w
        for level in range(1, cfg.levels):
            c = cfg.channels_at(level)
            m = self._group(f"enc{level}", cfg.level_layers[level - 1],
                            T.reshape(cur, (c, ch * cw)))
            cur = T.reshape(m, (c, ch, cw))
            feats.append(FeatureMap(cur))
            skips.append(cur)
            cur = T.depthwise_conv2d(cur, self._p(f"down{level}.dw.w"),
                                     self._p(f"down{level}.dw.b"), stride=2)
            ch, cw = ch // 2, cw // 2
            cur = T.reshape(self._pw(f"down{level}.pw",
                                     T.reshape(cur, (c, ch * cw))), (2 * c, ch, cw))
        c_lat = cfg.channels_at(cfg.levels)
        m = self._group("lat", cfg.level_layers[-1], T.reshape(cur, (c_lat, ch * cw)))
        cur = T.reshape(m, (c_lat, ch, cw))
        feats.append(FeatureMap(cur))
        for level in range(cfg.levels - 1, 0, -1):
            c = cfg.channels_at(level)
            ch, cw = ch * 2, cw * 2
            cur = T.upsample2x_depthwise_conv2d(cur, self._p(f"up{level}.dw.w"),
                                                self._p(f"up{level}.dw.b"))
            cat = T.concat([T.reshape(cur, (2 * c, ch * cw)),
                            T.reshape(skips[level - 1], (c, ch * cw))], axis=0)
            m = self._pw(f"up{level}.fuse", cat)
            m = self._group(f"dec{level}", cfg.level_layers[level - 1], m)
            cur = T.reshape(m, (c, ch, cw))
            feats.append(FeatureMap(cur))
        correction = T.conv2d(cur, self._p("final.w"), self._p("final.b"))
        return T.add(x, correction), feats

    def forward(self, x: Tensor) -> Tensor:
        out, _ = self.forward_with_features(x)
        return out


def build_net(cfg: ModelConfig, seed: int) -> RestorationNet:
    """Deterministically initialized, trainable net for (cfg, seed)."""
    rng = rng_for(seed, "net-init")
    return RestorationNet(cfg, {spec.name: _initial_value(spec, rng) for spec in param_layout(cfg)},
                          requires_grad=True)


# -- analytic accounting ------------------------------------------------------


def count_params_flops(cfg: ModelConfig, h: int, w: int) -> tuple[int, int]:
    """Parameter and FLOP counts of a forward pass at (h, w), summed over
    `param_layout` under the MAC rule of the module docstring.

    Matches the instrumented trace of `forward_with_features` exactly under
    the 2-FLOPs-per-MAC convention.
    """
    div = cfg.spatial_divisor
    if h < div or w < div or h % div or w % div:
        raise ShapeError(f"extents {h}x{w} must be positive multiples of {div}")
    params = 0
    macs = 0
    for spec in param_layout(cfg):
        size = math.prod(spec.shape)
        params += size
        if len(spec.shape) >= 2:
            n = (h >> spec.level - 1) * (w >> spec.level - 1)
            macs += size * n
            if spec.name.endswith(".attn.q.w"):
                macs += 2 * size * n       # q k^T and A v
    return params, 2 * macs


def reduction_percentages(teacher: ModelConfig, student: ModelConfig,
                          h: int, w: int) -> tuple[float, float]:
    """(param, flop) reductions of student vs teacher, in percent."""
    tp, tf = count_params_flops(teacher, h, w)
    sp, sf = count_params_flops(student, h, w)
    return 100.0 * (1.0 - sp / tp), 100.0 * (1.0 - sf / tf)
