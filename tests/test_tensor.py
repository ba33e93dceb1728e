import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from skdistill.errors import NonFiniteError, ShapeError
from skdistill import gradsuite, tensor as T
from skdistill.losses import LossWeights, gaussian_kernel_distance, total_loss
from skdistill.tensor import Tensor
from skdistill.trainer import AdamState, adam_step


def rng(seed=0):
    return np.random.default_rng(seed)


class TestMatmul:
    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self):
        a = Tensor(rng(1).normal(size=(3, 3)))
        out = T.matmul(a, Tensor(np.eye(3)))
        assert np.array_equal(out.data, a.data)

    def test_zero_annihilates(self):
        a = Tensor(rng(2).normal(size=(2, 4)))
        out = T.matmul(a, Tensor(np.zeros((4, 3))))
        assert np.array_equal(out.data, np.zeros((2, 3)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_backward(self):
        a = Tensor(rng(3).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng(4).normal(size=(3, 2)), requires_grad=True)
        out = T.sum_(T.matmul(a, b))
        out.backward()
        g = np.ones((2, 2))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)


class TestSoftmaxRows:
    def test_uniform_input(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        out = T.softmax_rows(Tensor([[math.log(2.0), 0.0]]))
        assert np.allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = T.softmax_rows(Tensor([[1000.0, 1000.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_empty_row_dimension(self):
        with pytest.raises(ShapeError):
            T.softmax_rows(Tensor(np.zeros((2, 0))))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-1000.0, 1000.0))
    def test_rows_sum_to_one_and_shift_invariance(self, seed, shift):
        x = rng(seed).normal(scale=100.0, size=(3, 5))
        y = T.softmax_rows(Tensor(x)).data
        assert np.all(np.abs(y.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(y >= 0.0)
        y_shifted = T.softmax_rows(Tensor(x + shift)).data
        assert np.max(np.abs(y - y_shifted)) < 1e-12


class TestGelu:
    def test_forward_is_the_erf_expression_bit_for_bit(self):
        # the cdf is built in one buffer; it must round like the expression
        x = rng(3).normal(size=(16, 1024))
        x[0, :4] = [np.inf, -np.inf, np.nan, 0.0]
        with np.errstate(invalid="ignore"):
            want = x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
            got = T.gelu(Tensor(x)).data
        assert got.tobytes() == want.tobytes()


class TestConv2d:
    def test_delta_kernel_is_identity(self):
        x = Tensor(rng(5).normal(size=(2, 6, 6)))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = T.conv2d(x, Tensor(w), Tensor(np.zeros(2)))
        assert np.allclose(out.data, x.data)

    def test_ones_kernel_on_constant_image(self):
        c, c_in = 0.7, 3
        x = Tensor(np.full((c_in, 5, 5), c))
        out = T.conv2d(x, Tensor(np.ones((1, c_in, 3, 3))), Tensor(np.zeros(1)))
        assert out.data[0, 2, 2] == pytest.approx(9 * c * c_in)
        assert out.data[0, 0, 0] == pytest.approx(4 * c * c_in)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                     Tensor(np.zeros(1)))

    def test_stride2_shape(self):
        out = T.conv2d(Tensor(np.zeros((1, 8, 8))), Tensor(np.zeros((4, 1, 3, 3))),
                       Tensor(np.zeros(4)), stride=2)
        assert out.shape == (4, 4, 4)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.tuples(st.integers(0, 5), st.integers(0, 9),
                                                 st.integers(0, 9)))
    def test_zero_border_equals_np_pad(self, seed, shape):
        x = rng(seed).normal(size=shape)
        padded = T._pad1(x)
        expected = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        assert padded.dtype == expected.dtype and padded.shape == expected.shape
        assert padded.tobytes() == expected.tobytes()


class TestGradcheck:
    def test_quadratic(self):
        x0 = Tensor([1.0, 2.0, 3.0])
        err = T.gradcheck(lambda x: T.sum_(T.mul(x, x)), x0)
        assert err < 1e-6
        x = Tensor(x0.data.copy(), requires_grad=True)
        out = T.sum_(T.mul(x, x))
        out.backward()
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_non_finite_at_x0(self):
        with pytest.raises(NonFiniteError):
            T.gradcheck(lambda x: T.log(T.sum_(x)), Tensor([-1.0]))

    def test_non_finite_gradient_fails_the_trial(self):
        # f is finite at x0, but x0 - eps leaves log's domain: the numeric
        # gradient is NaN, which max() would otherwise drop as 0
        def log_near_zero(r, i):
            return lambda x: T.sum_(T.log(x)), Tensor([5e-6])
        with np.errstate(invalid="ignore"):
            assert T.gradcheck(*log_near_zero(None, 0)) == math.inf
            result = gradsuite._run(0, "log near zero", 2, log_near_zero)
        assert result.max_rel_err == math.inf
        assert not result.passed()

    def test_round_off_of_a_large_f_is_not_an_error(self):
        # the 2e-9 entry's numeric value carries ~1e-7 of round-off from
        # |f| ~ 1e4; against a 1e-8 floor alone it read 0.2
        x0 = Tensor([1e-9, 1.0, -0.3])
        err = T.gradcheck(lambda x: T.add(T.sum_(T.mul(x, x)), 1e4), x0)
        assert err < 1e-4

    def test_round_off_bound_does_not_hide_a_small_error(self):
        # the same large |f|, with the gradient of one entry 0.1% wrong
        def f(x):
            out = T.add(T.sum_(T.mul(x, x)), 1e4)
            inner = out._backward
            out._backward = lambda g: inner(1.001 * g)
            return out
        assert T.gradcheck(f, Tensor([0.5, 1.0, -0.3])) > 1e-4

    @pytest.mark.parametrize("op,make", [
        ("exp", lambda x: T.sum_(T.exp(x))),
        ("gelu", lambda x: T.sum_(T.gelu(x))),
        ("softmax", lambda x: T.sum_(T.mul(T.softmax_rows(x), T.softmax_rows(x)))),
        ("transpose", lambda x: T.sum_(T.mul(T.transpose(x), T.transpose(x)))),
        ("upsample", lambda x: T.sum_(T.mul(T.upsample2x_nearest(T.reshape(x, (1, 2, 3))),
                                            T.upsample2x_nearest(T.reshape(x, (1, 2, 3)))))),
    ])
    def test_op_gradients(self, op, make):
        x0 = Tensor(rng(hash(op) % 2**32).normal(size=(2, 3)))
        assert T.gradcheck(make, x0) < 1e-4


# the check of each op below, in `gradsuite.CHECKS`
_OWN_CHECK = {
    "gelu": "gelu",
    "layer_norm_channels": "layer_norm_channels",
    "linear": "linear (w/m/bias)",
    "softmax_rows": "softmax rows/cols",
    "conv2d": "conv2d",
    "depthwise_conv2d": "depthwise_conv2d",
    "upsample2x_depthwise_conv2d": "upsample2x_depthwise_conv2d (x/w/bias)",
    "spatial_attend": "spatial_attend (t/s)",
}


class TestGradientSuiteDesign:
    def test_readings_do_not_depend_on_order_or_on_the_other_checks(self, monkeypatch):
        def readings():
            return [(r.name, r.max_rel_err) for r in gradsuite.run_gradcheck_suite(3)]
        full = readings()
        monkeypatch.setattr(gradsuite, "CHECKS", gradsuite.CHECKS[::-1])
        assert readings()[::-1] == full
        monkeypatch.setattr(gradsuite, "CHECKS", gradsuite.CHECKS[::-1][1:])
        assert readings() == full[1:]

    @pytest.mark.parametrize("op, check", _OWN_CHECK.items())
    def test_a_scaled_backward_fails_its_ops_check(self, monkeypatch, op, check):
        fn = getattr(T, op)

        def scaled(*args, **kwargs):
            out = fn(*args, **kwargs)
            inner = out._backward
            if inner is not None:
                out._backward = lambda g: inner(1.001 * g)
            return out
        monkeypatch.setattr(T, op, scaled)
        row = next(c for c in gradsuite.CHECKS if c[0] == check)
        for seed in range(5):
            assert not gradsuite._run(seed, *row).passed(), seed


class TestGraph:
    def test_uninfluential_leaf_gets_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        out = T.sum_(T.add(x, T.mul(y, 0.0)))
        out.backward(leaves=[x, y])
        assert np.array_equal(y.grad, np.zeros(2))
        assert np.array_equal(x.grad, np.ones(2))

    def test_disconnected_leaf_zeroed_via_leaves(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        out = T.sum_(x)
        out.backward(leaves=[x, y])
        assert np.array_equal(y.grad, np.zeros(1))

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            T.add(x, x).backward()

    def test_grad_accumulates_over_fanout(self):
        x = Tensor([2.0], requires_grad=True)
        out = T.sum_(T.add(T.mul(x, 3.0), T.mul(x, 4.0)))
        out.backward()
        assert np.array_equal(x.grad, [7.0])

    def test_replay_is_bitwise_identical(self):
        def run():
            g = rng(42)
            x = Tensor(g.normal(size=(3, 4)), requires_grad=True)
            w = Tensor(g.normal(size=(4, 2)), requires_grad=True)
            out = T.sum_(T.gelu(T.matmul(T.softmax_rows(x), w)))
            out.backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


    def test_add_gives_each_input_its_own_buffer(self):
        # both inputs of `add` take the output gradient unchanged; if they
        # shared one buffer, x's later accumulation would leak into y
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        y = Tensor(np.zeros((2, 3)), requires_grad=True)
        m = T.mul(x, 3.0)
        z = T.add(x, y)
        T.add(T.sum_(z), T.sum_(m)).backward()
        assert np.array_equal(x.grad, np.full((2, 3), 4.0))
        assert np.array_equal(y.grad, np.ones((2, 3)))


def _positive(*shape):
    return rng(5).uniform(0.5, 1.5, size=shape)


# every op that builds a graph node, with valid input arrays
NODE_OPS = {
    "add": (T.add, [(2, 3), (2, 3)]),
    "sub": (T.sub, [(2, 3), (2, 3)]),
    "mul": (T.mul, [(2, 3), (2, 3)]),
    "div": (T.div, [(2, 3), (2, 3)]),
    "neg": (T.neg, [(2, 3)]),
    "pow_": (lambda a: T.pow_(a, 2.0), [(2, 3)]),
    "exp": (T.exp, [(2, 3)]),
    "log": (T.log, [(2, 3)]),
    "abs_": (T.abs_, [(2, 3)]),
    "gelu": (T.gelu, [(2, 3)]),
    "sum_": (T.sum_, [(2, 3)]),
    "reshape": (lambda a: T.reshape(a, (3, 2)), [(2, 3)]),
    "transpose": (T.transpose, [(2, 3)]),
    "concat": (lambda a, b: T.concat([a, b]), [(2, 3), (1, 3)]),
    "matmul": (T.matmul, [(2, 3), (3, 4)]),
    "softmax_rows": (T.softmax_rows, [(2, 3)]),
    "softmax_cols": (T.softmax_cols, [(2, 3)]),
    "spatial_attend": (lambda t, s: T.spatial_attend(t, s, 0.5), [(2, 3), (2, 3)]),
    "linear": (T.linear, [(2, 3), (3, 4), (2,)]),
    "layer_norm_channels": (T.layer_norm_channels, [(3, 4), (3,), (3,)]),
    "conv2d": (lambda x, w, b: T.conv2d(x, w, b, stride=2), [(2, 4, 4), (3, 2, 3, 3), (3,)]),
    "depthwise_conv2d": (T.depthwise_conv2d, [(2, 4, 4), (2, 3, 3), (2,)]),
    "upsample2x_nearest": (T.upsample2x_nearest, [(2, 2, 3)]),
    "upsample2x_depthwise_conv2d": (T.upsample2x_depthwise_conv2d, [(2, 2, 3), (2, 3, 3), (2,)]),
}


class TestNodeContract:
    @pytest.mark.parametrize("name", NODE_OPS)
    def test_frozen_inputs_build_no_graph(self, name):
        op, shapes = NODE_OPS[name]
        out = op(*[Tensor(_positive(*shape)) for shape in shapes])
        assert out.requires_grad is False
        assert out._parents == ()
        assert out._backward is None

    @pytest.mark.parametrize("name", NODE_OPS)
    def test_the_one_trainable_input_is_the_only_parent(self, name):
        op, shapes = NODE_OPS[name]
        for trainable in range(len(shapes)):
            inputs = [Tensor(_positive(*shape), requires_grad=i == trainable)
                      for i, shape in enumerate(shapes)]
            out = op(*inputs)
            assert out.requires_grad is True
            assert len(out._parents) == 1 and out._parents[0] is inputs[trainable]
            T.sum_(out).backward()
            assert [t.grad is not None for t in inputs] == \
                [i == trainable for i in range(len(inputs))]


class TestGraphRelease:
    def test_graph_dies_with_its_loss_without_the_cyclic_collector(self):
        g = rng(7)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t = Tensor(g.normal(size=(3, 6)), requires_grad=True)
            s = Tensor(g.normal(size=(3, 6)), requires_grad=True)
            e = T.exp(T.mul(t, 0.1))
            mixed = T.spatial_attend(e, s, 0.5)
            loss = gaussian_kernel_distance(mixed, Tensor(g.normal(size=(3, 6))), 1.0)
            loss.backward(leaves=[t, s])
            probes = [weakref.ref(e), weakref.ref(mixed)]
            del e, mixed, loss
            assert [p() for p in probes] == [None, None]
        finally:
            if was_enabled:
                gc.enable()


def _overflow() -> Tensor:
    with np.errstate(over="ignore"):
        return T.exp(Tensor([1000.0]))


class TestNanPolicy:
    """Ops let NaN/Inf through; the boundaries where results leave refuse them
    (metrics, restored images and loaded parameters are tested with their
    modules)."""

    def test_ops_propagate_non_finite(self):
        out = _overflow()
        assert np.isinf(out.data[0])

    @pytest.mark.parametrize("boundary", [
        lambda v: total_loss(T.sum_(v), 0.0, 0.0, LossWeights()),
        lambda v: adam_step([Tensor([1.0])], [v.data], AdamState.for_params([v]), lr=1e-3),
        lambda v: T.gradcheck(lambda x: T.sum_(T.mul(x, v)), Tensor([1.0])),
    ], ids=["total_loss", "adam_step", "gradcheck"])
    def test_overflow_is_refused_at_the_boundary(self, boundary):
        with pytest.raises(NonFiniteError):
            boundary(_overflow())


class TestMacCounting:
    def test_matmul_macs(self):
        with T.count_macs() as c:
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))))
        assert c.macs == 2 * 3 * 5

    def test_conv_macs(self):
        with T.count_macs() as c:
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))),
                     Tensor(np.zeros(3)))
        assert c.macs == 3 * 2 * 9 * 16

    def test_nested_counters(self):
        with T.count_macs() as outer:
            T.matmul(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))))
            with T.count_macs() as inner:
                T.matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        assert inner.macs == 8
        assert outer.macs == 9


@pytest.mark.parametrize("seed", range(6))
def test_depthwise_matches_dense_equivalent(seed):
    g = rng(seed)
    x = g.normal(size=(3, 5, 5))
    w = g.normal(size=(3, 3, 3))
    b = g.normal(size=3)
    dense = np.zeros((3, 3, 3, 3))
    for c in range(3):
        dense[c, c] = w[c]
    got = T.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    want = T.conv2d(Tensor(x), Tensor(dense), Tensor(b)).data
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_gradients(stride):
    g = rng(10 + stride)
    x0 = Tensor(g.normal(size=(2, 4, 4)))
    w = Tensor(g.normal(size=(3, 2, 3, 3)))
    b = Tensor(g.normal(size=3))
    err = T.gradcheck(lambda x: T.sum_(T.mul(T.conv2d(x, w, b, stride=stride),
                                             T.conv2d(x, w, b, stride=stride))),
                      x0)
    assert err < 1e-4


def _upsample_then_depthwise(x, w, bias):
    return T.depthwise_conv2d(T.upsample2x_nearest(x), w, bias)


class TestUpsampleDepthwise:
    """The fused op against the composite it replaces."""

    @staticmethod
    def run(op, arrays, g_out):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        with T.count_macs() as counter:
            out = op(*inputs)
        T.sum_(T.mul(out, Tensor(g_out))).backward()
        return out.data, [t.grad for t in inputs], counter.macs

    @pytest.mark.parametrize("c,h,w", [(1, 1, 1), (2, 1, 3), (3, 4, 5), (7, 9, 2), (32, 16, 16)])
    def test_matches_the_composite(self, c, h, w):
        g = rng(c * 100 + h * 10 + w)
        arrays = [g.normal(size=(c, h, w)), g.normal(size=(c, 3, 3)), g.normal(size=c)]
        g_out = g.normal(size=(c, 2 * h, 2 * w))
        got, got_grads, got_macs = self.run(T.upsample2x_depthwise_conv2d, arrays, g_out)
        want, want_grads, want_macs = self.run(_upsample_then_depthwise, arrays, g_out)
        assert got.shape == want.shape == (c, 2 * h, 2 * w)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for got_grad, want_grad in zip(got_grads, want_grads):
            assert np.max(np.abs(got_grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
        assert got_macs == want_macs == 9 * c * (2 * h) * (2 * w)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.upsample2x_depthwise_conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 3, 3))),
                                          Tensor(np.zeros(2)))
