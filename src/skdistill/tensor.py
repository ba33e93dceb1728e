"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is implicit. Every op computes its output array and a closure
that pushes the output gradient back, and hands both to `_node`, the one
place that wires a node: its parents are the inputs with
`requires_grad`, and the closure is kept only when there is at least one.
An op whose inputs are all frozen returns a constant with no parents and
no closure, so forward-only passes (evaluation, the frozen teacher) build
no graph. Creation order gives a topological order, so `backward` sweeps
nodes in exact reverse creation order, which keeps runs bitwise
reproducible.

Multiply-accumulate counts (for the complexity accounting) are recorded
only by `matmul`, `linear`, `spatial_attend` and the three convolution ops,
under the convention 1 MAC = 2 FLOPs.

Ops do not check their values: NaN and Inf propagate, and finiteness is
checked where data enters the package and where results leave it.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import erf

from .errors import NonFiniteError, RangeError, ShapeError

_ids = itertools.count()

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class MacCounter:
    """Accumulates multiply-accumulate counts recorded while active."""

    def __init__(self) -> None:
        self.macs = 0


_mac_counters: list[MacCounter] = []


@contextmanager
def count_macs() -> Iterator[MacCounter]:
    """Context manager instrumenting matmul/conv MACs executed inside."""
    counter = MacCounter()
    _mac_counters.append(counter)
    try:
        yield counter
    finally:
        _mac_counters.remove(counter)


def _record_macs(n: int) -> None:
    for counter in _mac_counters:
        counter.macs += n


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_id", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, parents: tuple = (),
                 backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._id = next(_ids)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def _accum_owned(self, g: np.ndarray) -> None:
        """Accumulate a freshly allocated (or dead-buffer) gradient.

        Backward closures call this when `g` is either a new array or the
        consumed output gradient, which the reverse-order sweep guarantees
        is never read again; skipping the defensive copy is then safe.
        """
        if self.grad is None:
            self.grad = g if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad += g

    def backward(self, leaves: Sequence["Tensor"] | None = None) -> None:
        """Reverse sweep from a scalar output.

        Grads of every node reached in this sweep are reset first, so each
        backward call stands alone. `leaves`, when given, are guaranteed a
        grad buffer afterwards (zeros if they do not influence the output).
        """
        if self.size != 1:
            raise ShapeError(f"backward requires a scalar output, got shape {self.shape}")
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        nodes.sort(key=lambda t: t._id, reverse=True)
        for node in nodes:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        if leaves is not None:
            for leaf in leaves:
                if leaf.grad is None:
                    leaf.grad = np.zeros_like(leaf.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape`, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _node(data, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    """The output node of an op over `inputs`.

    Its parents are the inputs that need a gradient, and `backward` is kept
    only when there is one; otherwise the output is a constant. Ops build
    `backward` before calling this, so it can only close over arrays and
    inputs: a closure that reaches its own node makes a reference cycle, and
    the whole graph then waits for the cyclic collector instead of dying
    with its last reference.
    """
    parents = tuple([t for t in inputs if t.requires_grad])  # a list builds faster
    if not parents:
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward=backward)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            a._accum_owned(ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            b._accum_owned(gb.copy() if gb is ga else gb)  # `a` owns `g` already
    return _node(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accum_owned(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum_owned(_unbroadcast(-g, b.shape))
    return _node(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accum_owned(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum_owned(_unbroadcast(g * a.data, b.shape))
    return _node(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accum_owned(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accum_owned(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))
    return _node(a.data / b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g: a._accum_owned(-g))


def pow_(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    return _node(a.data ** p, (a,), lambda g: a._accum_owned(g * p * a.data ** (p - 1.0)))


def sqrt(a) -> Tensor:
    return pow_(a, 0.5)


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    return _node(y, (a,), lambda g: a._accum_owned(g * y))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g: a._accum_owned(g / a.data))


def abs_(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.abs(a.data), (a,), lambda g: a._accum_owned(g * np.sign(a.data)))


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU; smooth, so finite differences stay clean."""
    a = as_tensor(a)
    # 0.5 * (1 + erf(x / sqrt 2)), built in one buffer
    cdf = a.data * _SQRT1_2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def backward(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        a._accum_owned(g * (cdf + a.data * pdf))
    return _node(a.data * cdf, (a,), backward)


def sum_(a) -> Tensor:
    """Sum of every element, a 0-d tensor."""
    a = as_tensor(a)
    return _node(a.data.sum(), (a,), lambda g: a._accum_owned(np.full(a.shape, g)))


def mean(a) -> Tensor:
    """Mean of every element, a 0-d tensor."""
    a = as_tensor(a)
    return mul(sum_(a), 1.0 / a.size)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    return _node(a.data.reshape(shape), (a,), lambda g: a._accum_owned(g.reshape(a.shape)))


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _node(a.data.T, (a,), lambda g: a._accum_owned(g.T))


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenation along axis 0."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")

    def backward(g):
        splits = np.cumsum([t.shape[0] for t in tensors])[:-1]
        for piece, t in zip(np.split(g, splits), tensors):
            if t.requires_grad:
                t._accum_owned(piece)
    return _node(np.concatenate([t.data for t in tensors]), tensors, backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    _record_macs(a.shape[0] * a.shape[1] * b.shape[1])

    def backward(g):
        if a.requires_grad:
            a._accum_owned(g @ b.data.T)
        if b.requires_grad:
            b._accum_owned(a.data.T @ g)
    return _node(a.data @ b.data, (a, b), backward)


def _softmax(a, axis: int, op: str) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"{op} expects a matrix, got shape {a.shape}")
    if a.shape[1 - axis] < 1 or a.shape[axis] < 1:
        raise ShapeError(f"{op} over an empty dimension, shape {a.shape}")
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(g):
        gy = g * y
        gy -= y * gy.sum(axis=axis, keepdims=True)
        a._accum_owned(gy)
    return _node(y, (a,), backward)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax with per-row max subtraction (overflow safe)."""
    return _softmax(a, 1, "softmax_rows")


def softmax_cols(a) -> Tensor:
    """Column-wise softmax; same stability shift, normalized along axis 0."""
    return _softmax(a, 0, "softmax_cols")


ATTEND_BLOCK = 64  # columns (forward) or rows (backward) of P per block


def spatial_attend(t, s, scale: float) -> Tensor:
    """s @ softmax_cols(scale * t^T s) for (C, N) inputs, as one graph node.

    No N x N array exists: the forward runs over blocks of ATTEND_BLOCK
    columns of the logits, and the softmax runs over each column, so every
    block is exact on its own. A block is held transposed, its columns as
    the rows of one (ATTEND_BLOCK, N) buffer reused across blocks: L =
    s_cols^T ts gives the row maxima m, L - m is recomputed as the product
    [s_cols; m]^T [ts; -1], exponentiated in place and summed along rows
    to z, and the output block is (s @ exp(L - m)^T) / z. It matches an
    extended-precision reference to 1e-14 relative and the composite
    `matmul(s, softmax_cols(matmul(transpose(t * scale), s)))` to 1e-13,
    not bitwise. The backward keeps only the output and each column's
    shift m + log z, and recomputes P one block of rows at a time, as
    FlashAttention does (Dao et al. 2022): P_ij = exp(ts_i . s_j - m_j -
    log z_j). Memory is O(C N + N ATTEND_BLOCK). Records the MACs of the
    two matmuls it replaces, 2 * C * N^2; the recomputes are not counted.
    """
    t, s = as_tensor(t), as_tensor(s)
    if t.ndim != 2 or t.shape != s.shape:
        raise ShapeError(f"spatial_attend expects two equal (C, N) matrices, "
                         f"got {t.shape} and {s.shape}")
    if min(t.shape) < 1:
        raise ShapeError(f"spatial_attend over an empty dimension, shape {t.shape}")
    c, n = s.shape
    _record_macs(2 * c * n * n)
    # [ts; -1] and [s; m]: an extra row carries each column's shift into
    # the product, so no broadcast subtraction runs over a block
    ts_minus = np.vstack([t.data * scale, np.full((1, n), -1.0)])
    s_shift = np.vstack([s.data, np.empty((1, n))])
    ts, shift = ts_minus[:c], s_shift[c]  # shift: m, then m + log z
    total = np.empty(n)  # z
    y = np.empty((c, n))
    block = (min(ATTEND_BLOCK, n), n)
    buf = np.empty(block)  # one block of P, transposed: row k is column j + k
    for j in range(0, n, ATTEND_BLOCK):
        cols = slice(j, j + ATTEND_BLOCK)
        p = buf[:min(ATTEND_BLOCK, n - j)]
        np.matmul(s.data[:, cols].T, ts, out=p)
        p.max(axis=1, out=shift[cols])
        np.matmul(s_shift[:, cols].T, ts_minus, out=p)
        np.exp(p, out=p)
        p.sum(axis=1, out=total[cols])
        y_cols = s.data @ p.T
        y_cols /= total[cols]
        y[:, cols] = y_cols
    shift += np.log(total)

    def backward(g):
        # softmax Jacobian: dL = P * (dP - r) with dP = s^T g and r the
        # column sums of P * dP, which have the (C, N) closed form
        # sum_c g * y. The shift and the subtraction each ride in their
        # matmul as one extra row, so a block of P costs one product and
        # one exp, and its dL one product and one multiply.
        d_lhs = np.vstack([s.data, np.full((1, n), -1.0)])
        d_rhs = np.vstack([g, np.einsum("cj,cj->j", g, y)[None]])
        ds = np.empty((c, n)) if s.requires_grad else None
        dt = np.empty((c, n)) if t.requires_grad else None
        ds_logits = np.zeros((c, n)) if s.requires_grad else None
        ds_block = np.empty((c, n)) if s.requires_grad else None
        p_buf, dl_buf = np.empty(block), np.empty(block)
        for i in range(0, n, ATTEND_BLOCK):
            rows = slice(i, i + ATTEND_BLOCK)
            p, dl = p_buf[:min(ATTEND_BLOCK, n - i)], dl_buf[:min(ATTEND_BLOCK, n - i)]
            np.matmul(ts_minus[:, rows].T, s_shift, out=p)
            np.exp(p, out=p)
            np.matmul(d_lhs[:, rows].T, d_rhs, out=dl)
            dl *= p
            if ds is not None:
                ds[:, rows] = g @ p.T
                np.matmul(ts[:, rows], dl, out=ds_block)
                ds_logits += ds_block
            if dt is not None:
                dt[:, rows] = s.data @ dl.T
        if ds is not None:
            ds += ds_logits
            s._accum_owned(ds)
        if dt is not None:
            dt *= scale
            t._accum_owned(dt)
    return _node(y, (t, s), backward)


def linear(w, m, bias) -> Tensor:
    """w @ m + bias[:, None]; the fused form of a 1x1 channel map.

    Records the same MACs as the underlying matmul (bias adds are free
    under the accounting convention)."""
    w, m, bias = as_tensor(w), as_tensor(m), as_tensor(bias)
    if w.ndim != 2 or m.ndim != 2 or w.shape[1] != m.shape[0]:
        raise ShapeError(f"linear shapes incompatible: w {w.shape}, m {m.shape}")
    if bias.shape != (w.shape[0],):
        raise ShapeError(f"linear bias shape {bias.shape} != ({w.shape[0]},)")
    _record_macs(w.shape[0] * w.shape[1] * m.shape[1])
    out_data = w.data @ m.data
    out_data += bias.data[:, None]

    def backward(g):
        if w.requires_grad:
            w._accum_owned(g @ m.data.T)
        if m.requires_grad:
            m._accum_owned(w.data.T @ g)
        if bias.requires_grad:
            bias._accum_owned(g.sum(axis=1))
    return _node(out_data, (w, m, bias), backward)


LN_EPS = 1e-5  # added to the variance in `layer_norm_channels`


def layer_norm_channels(x, gamma, beta) -> Tensor:
    """Normalize each column of a (C, N) matrix over its channel axis, then
    apply the per-channel affine (gamma, beta)."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 2:
        raise ShapeError(f"layer_norm_channels expects a matrix, got shape {x.shape}")
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"affine shapes {gamma.shape}/{beta.shape} do not match {c} channels")
    mu = x.data.mean(axis=0, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=0, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    y = centered * inv_std
    out_data = gamma.data[:, None] * y
    out_data += beta.data[:, None]

    def backward(g):
        if gamma.requires_grad:
            gamma._accum_owned((g * y).sum(axis=1))
        if beta.requires_grad:
            beta._accum_owned(g.sum(axis=1))
        if x.requires_grad:
            dy = g * gamma.data[:, None]
            dx = dy - dy.mean(axis=0, keepdims=True)
            dx -= y * (dy * y).mean(axis=0, keepdims=True)
            dx *= inv_std
            x._accum_owned(dx)
    return _node(out_data, (x, gamma, beta), backward)


def _conv_out_extent(extent: int, stride: int) -> int:
    # kernel 3, zero padding 1
    return (extent + 2 - 3) // stride + 1


def _pad1(a: np.ndarray) -> np.ndarray:
    """(C, H, W) `a` in a one-pixel zero border, equal to
    np.pad(a, ((0, 0), (1, 1), (1, 1))) but without its per-call overhead."""
    c, h, w = a.shape
    out = np.zeros((c, h + 2, w + 2))
    out[:, 1:h + 1, 1:w + 1] = a
    return out


def _taps(stride: int, h_out: int, w_out: int) -> Iterator[tuple[int, int, tuple]]:
    """(di, dj, index) for each tap of a 3x3 kernel, row by row; `index`
    selects the (C, h_out, w_out) window of the padded input that the tap
    reads, for the patch gather and for the gradient's scatter-add."""
    for di in range(3):
        for dj in range(3):
            yield di, dj, (slice(None), slice(di, di + stride * (h_out - 1) + 1, stride),
                           slice(dj, dj + stride * (w_out - 1) + 1, stride))


def conv2d(x, w, bias, stride: int = 1) -> Tensor:
    """3x3 convolution, zero padding 1, stride 1 or 2, channel-first layout."""
    x, w, bias = as_tensor(x), as_tensor(w), as_tensor(bias)
    if x.ndim != 3 or w.ndim != 4 or w.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d expects x (C,H,W) and w (O,C,3,3), got {x.shape} and {w.shape}")
    if w.shape[1] != x.shape[0]:
        raise ShapeError(f"conv2d channel mismatch: x has {x.shape[0]}, w expects {w.shape[1]}")
    if bias.shape != (w.shape[0],):
        raise ShapeError(f"conv2d bias shape {bias.shape} != ({w.shape[0]},)")
    if stride not in (1, 2):
        raise RangeError(f"conv2d stride must be 1 or 2, got {stride}")
    c_in, h, wd = x.shape
    c_out = w.shape[0]
    h_out, w_out = _conv_out_extent(h, stride), _conv_out_extent(wd, stride)
    xp = _pad1(x.data)
    patches = np.empty((c_in, 3, 3, h_out, w_out))
    for di, dj, tap in _taps(stride, h_out, w_out):
        patches[:, di, dj] = xp[tap]
    cols = patches.reshape(c_in * 9, h_out * w_out)
    w_mat = w.data.reshape(c_out, c_in * 9)
    _record_macs(c_out * c_in * 9 * h_out * w_out)
    out_data = (w_mat @ cols + bias.data[:, None]).reshape(c_out, h_out, w_out)

    def backward(g):
        g_mat = g.reshape(c_out, h_out * w_out)
        if bias.requires_grad:
            bias._accum_owned(g_mat.sum(axis=1))
        if w.requires_grad:
            w._accum_owned((g_mat @ cols.T).reshape(w.shape))
        if x.requires_grad:
            dcols = (w_mat.T @ g_mat).reshape(c_in, 3, 3, h_out, w_out)
            dxp = np.zeros_like(xp)
            for di, dj, tap in _taps(stride, h_out, w_out):
                dxp[tap] += dcols[:, di, dj]
            x._accum_owned(dxp[:, 1:h + 1, 1:wd + 1])
    return _node(out_data, (x, w, bias), backward)


def _depthwise_inputs(op: str, x, w, bias) -> tuple[Tensor, Tensor, Tensor]:
    x, w, bias = as_tensor(x), as_tensor(w), as_tensor(bias)
    if x.ndim != 3 or w.ndim != 3 or w.shape[1:] != (3, 3):
        raise ShapeError(f"{op} expects x (C,H,W) and w (C,3,3), got {x.shape} and {w.shape}")
    if w.shape[0] != x.shape[0]:
        raise ShapeError(f"depthwise channel mismatch: x has {x.shape[0]}, w has {w.shape[0]}")
    if bias.shape != (x.shape[0],):
        raise ShapeError(f"depthwise bias shape {bias.shape} != ({x.shape[0]},)")
    return x, w, bias


def depthwise_conv2d(x, w, bias, stride: int = 1) -> Tensor:
    """Per-channel 3x3 convolution (zero padding 1), stride 1 or 2."""
    x, w, bias = _depthwise_inputs("depthwise_conv2d", x, w, bias)
    if stride not in (1, 2):
        raise RangeError(f"depthwise stride must be 1 or 2, got {stride}")
    c, h, wd = x.shape
    h_out, w_out = _conv_out_extent(h, stride), _conv_out_extent(wd, stride)
    xp = _pad1(x.data)
    _record_macs(c * 9 * h_out * w_out)
    out_data = np.broadcast_to(bias.data[:, None, None], (c, h_out, w_out)).copy()
    for di, dj, tap in _taps(stride, h_out, w_out):
        out_data += w.data[:, di, dj, None, None] * xp[tap]

    def backward(g):
        if bias.requires_grad:
            bias._accum_owned(g.sum(axis=(1, 2)))
        if w.requires_grad:
            dw = np.empty_like(w.data)
            for di, dj, tap in _taps(stride, h_out, w_out):
                dw[:, di, dj] = (g * xp[tap]).sum(axis=(1, 2))
            w._accum_owned(dw)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for di, dj, tap in _taps(stride, h_out, w_out):
                dxp[tap] += w.data[:, di, dj, None, None] * g
            x._accum_owned(dxp[:, 1:h + 1, 1:wd + 1])
    return _node(out_data, (x, w, bias), backward)


def upsample2x_nearest(x) -> Tensor:
    """Nearest-neighbour 2x upsampling; the reference that
    `upsample2x_depthwise_conv2d` is checked against."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"upsample2x_nearest expects (C,H,W), got shape {x.shape}")
    c, h, w = x.shape
    return _node(np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2), (x,),
                 lambda g: x._accum_owned(g.reshape(c, h, 2, w, 2).sum(axis=(2, 4))))


# For output row parity r, the three kernel rows of a conv over a
# nearest-upsampled input read two rows of the zero-padded low-resolution
# input: (row offset, the kernel rows that read it). Columns work the same way.
_UP_PHASE_TAPS = (((0, slice(0, 1)), (1, slice(1, 3))),
                  ((1, slice(0, 2)), (2, slice(2, 3))))


def upsample2x_depthwise_conv2d(x, w, bias) -> Tensor:
    """depthwise_conv2d(upsample2x_nearest(x), w, bias) as one op.

    Each output phase (row parity x column parity) is a 2x2 depthwise conv
    of the padded low-resolution x whose taps are sums of w, a sub-pixel
    convolution (Shi et al. 2016): 16 multiply-adds per low-resolution
    pixel and channel instead of 36, and no 4x intermediate. The result
    matches the composite to rounding, not bitwise. Records the composite's
    MACs, 9 * C * (2h) * (2w).
    """
    x, w, bias = _depthwise_inputs("upsample2x_depthwise_conv2d", x, w, bias)
    c, h, wd = x.shape
    _record_macs(c * 9 * (2 * h) * (2 * wd))
    xp = _pad1(x.data)

    def phase_taps(r, s):
        """(kernel rows, kernel cols, index into xp) of the 4 taps of phase (r, s)."""
        for di, rows in _UP_PHASE_TAPS[r]:
            for dj, cols in _UP_PHASE_TAPS[s]:
                yield rows, cols, (slice(None), slice(di, di + h), slice(dj, dj + wd))

    def kernel(rows, cols):
        return w.data[:, rows, cols].sum(axis=(1, 2))[:, None, None]

    out = np.empty((c, h, 2, wd, 2))
    phase = np.empty((c, h, wd))
    for r in range(2):
        for s in range(2):
            phase[:] = bias.data[:, None, None]
            for rows, cols, tap in phase_taps(r, s):
                phase += kernel(rows, cols) * xp[tap]
            out[:, :, r, :, s] = phase

    def backward(g):
        if bias.requires_grad:
            bias._accum_owned(g.sum(axis=(1, 2)))
        g = g.reshape(c, h, 2, wd, 2)
        dw = np.zeros_like(w.data) if w.requires_grad else None
        dxp = np.zeros_like(xp) if x.requires_grad else None
        for r in range(2):
            for s in range(2):
                g_phase = g[:, :, r, :, s]
                for rows, cols, tap in phase_taps(r, s):
                    if dw is not None:
                        dk = np.einsum("chw,chw->c", g_phase, xp[tap])
                        dw[:, rows, cols] += dk[:, None, None]
                    if dxp is not None:
                        dxp[tap] += kernel(rows, cols) * g_phase
        if dw is not None:
            w._accum_owned(dw)
        if dxp is not None:
            x._accum_owned(dxp[:, 1:h + 1, 1:wd + 1])
    return _node(out.reshape(c, 2 * h, 2 * wd), (x, w, bias), backward)


GRADCHECK_STEP = 1e-5  # h of the central differences in `gradcheck`


def gradcheck(f: Callable[[Tensor], Tensor], x0: Tensor) -> float:
    """Compare the analytic gradient of a scalar-valued `f` against central
    finite differences of step h = GRADCHECK_STEP at `x0`; returns the max
    elementwise relative error, or inf when either gradient has a non-finite
    entry. Each entry's |analytic - numeric| is first reduced by the
    stencil's own round-off bound, eps_f64 * (|f(x+h)| + |f(x-h)|) / (2h)
    with eps_f64 the float64 machine epsilon, then divided by
    max(|analytic|, |numeric|, 1e-8); without it, a correct entry near zero
    of a large |f| reads as wrong."""
    h = GRADCHECK_STEP
    base = np.array(x0.data, dtype=np.float64, copy=True)
    x = Tensor(base.copy(), requires_grad=True)
    out = f(x)
    if out.size != 1:
        raise ShapeError(f"gradcheck target must be scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise NonFiniteError("gradcheck: f is non-finite at x0")
    out.backward(leaves=[x])
    analytic = x.grad.reshape(-1)

    def value_at(arr: np.ndarray) -> float:
        return float(f(Tensor(arr, requires_grad=False)).data)

    flat = base.reshape(-1)
    plus, minus = np.empty(flat.size), np.empty(flat.size)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        plus[i] = value_at(base)
        flat[i] = saved - h
        minus[i] = value_at(base)
        flat[i] = saved
    numeric = (plus - minus) / (2.0 * h)
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        return math.inf
    roundoff = np.finfo(np.float64).eps * (np.abs(plus) + np.abs(minus)) / (2.0 * h)
    err = np.maximum(np.abs(analytic - numeric) - roundoff, 0.0)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(err / denom))
