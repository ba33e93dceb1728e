import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skdistill import tensor as T
from skdistill.attention import (
    FeatureMap,
    channel_attention_matrix,
    channel_cross_attention,
    cross_net_features,
    make_projector,
    project,
    spatial_cross_attention,
)
from skdistill.errors import ConfigError, RangeError, ShapeError
from skdistill.losses import gaussian_kernel_distance
from skdistill.tensor import Tensor

from oracles import (
    brute_force_channel,
    brute_force_gk,
    brute_force_spatial,
    extended_spatial_attend,
    spatial_attention_matrix,
    spatial_output,
)


def fmap(arr) -> FeatureMap:
    return FeatureMap(Tensor(np.asarray(arr, dtype=np.float64)))


def random_pair(seed, c=3, h=2, w=4, scale=1.0):
    g = np.random.default_rng(seed)
    t = fmap(g.normal(scale=scale, size=(c, h, w)))
    s = fmap(g.normal(scale=scale, size=(c, h, w)))
    return t, s


class TestProject:
    def test_identity_map(self):
        f, _ = random_pair(0, c=3)
        p = (Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.allclose(project(p, f).values.data, f.values.data)

    def test_constant_map(self):
        f, _ = random_pair(1, c=2)
        p = (Tensor(np.zeros((4, 2))), Tensor([1.0, -2.0, 0.5, 3.0]))
        out = project(p, f).values.data
        for k, b in enumerate([1.0, -2.0, 0.5, 3.0]):
            assert np.all(out[k] == b)

    def test_summing_map(self):
        f, _ = random_pair(2, c=2)
        p = (Tensor([[1.0, 1.0]]), Tensor([0.0]))
        out = project(p, f).values.data
        assert np.allclose(out[0], f.values.data.sum(axis=0))

    def test_channel_mismatch(self):
        f, _ = random_pair(3, c=3)
        p = (Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            project(p, f)

    def test_parameter_count_closed_form(self):
        weight, bias = make_projector(c_src=5, d_u=3, rng=np.random.default_rng(0))
        assert weight.shape == (3, 5) and bias.shape == (3,)


class TestChannelAttention:
    def test_degenerate_scalar(self):
        t, s = fmap([[[2.0]]]), fmap([[[5.0]]])
        a = channel_attention_matrix(t.matrix(), s.matrix())
        assert np.allclose(a.data, [[1.0]])
        assert np.allclose(channel_cross_attention(t, s).values.data, s.values.data)

    def test_zero_teacher_gives_uniform_rows(self):
        _, s = random_pair(4, c=3)
        t = fmap(np.zeros((3, 2, 4)))
        a = channel_attention_matrix(t.matrix(), s.matrix())
        assert np.allclose(a.data, np.full((3, 3), 1.0 / 3.0))
        out = channel_cross_attention(t, s).values.data
        mean_row = s.matrix().data.mean(axis=0)
        for i in range(3):
            assert np.allclose(out.reshape(3, -1)[i], mean_row)

    def test_hand_case_matches_brute_force(self):
        t_rows = [[1.0, 0.0], [0.0, 1.0]]
        s_rows = [[1.0, 2.0], [3.0, 4.0]]
        t, s = fmap([[r] for r in t_rows]), fmap([[r] for r in s_rows])
        lam = math.sqrt(2.0)
        want, want_a = brute_force_channel(t_rows, s_rows, lam)
        got = channel_cross_attention(t, s).values.data.reshape(2, 2)
        got_a = channel_attention_matrix(t.matrix(), s.matrix()).data
        assert np.max(np.abs(got - np.array(want))) < 1e-12
        assert np.max(np.abs(got_a - np.array(want_a))) < 1e-12

    def test_shape_mismatch(self):
        t, _ = random_pair(5, c=2)
        _, s = random_pair(6, c=3)
        with pytest.raises(ShapeError):
            channel_cross_attention(t, s)


class TestSpatialAttention:
    def test_degenerate_scalar(self):
        t, s = fmap([[[2.0]]]), fmap([[[5.0]]])
        assert np.allclose(spatial_output(t, s), [[5.0]])
        got = spatial_cross_attention(t, s, 1.5).item()
        assert abs(got - brute_force_gk([[5.0]], [[2.0]], 1.5, True)) < 1e-15

    def test_zero_teacher_gives_uniform_columns(self):
        _, s = random_pair(7, c=3, h=2, w=2)
        t = fmap(np.zeros((3, 2, 2)))
        b = spatial_attention_matrix(t, s)
        assert np.allclose(b.data, np.full((4, 4), 0.25))
        out = spatial_output(t, s)
        mean_col = s.matrix().data.mean(axis=1)
        for j in range(4):
            assert np.allclose(out[:, j], mean_col)

    def test_hand_case_matches_brute_force(self):
        t_rows = [[1.0, 0.0], [0.0, 1.0]]
        s_rows = [[1.0, 2.0], [3.0, 4.0]]
        t, s = fmap([[r] for r in t_rows]), fmap([[r] for r in s_rows])
        lam = math.sqrt(2.0)
        want, want_b = brute_force_spatial(t_rows, s_rows, lam)
        got = spatial_output(t, s)
        got_b = spatial_attention_matrix(t, s).data
        assert np.max(np.abs(got - np.array(want))) < 1e-12
        assert np.max(np.abs(got_b - np.array(want_b))) < 1e-12
        got_gk = spatial_cross_attention(t, s, 0.8).item()
        assert abs(got_gk - brute_force_gk(want, t_rows, 0.8, True)) < 1e-12


class TestFusedSpatialAttention:
    """The blocked op against the composite reference it replaces.

    The output y of the block loop, read through `tensor._attend_blocks`,
    sums each column along a row of its transposed block and divides after
    the output product, so it rounds differently from the composite at
    every N: it is held to 1e-13 relative of the composite and to 1e-14
    relative of an extended-precision reference. The kernel distance is
    computed from y as `gaussian_kernel_distance` computes it, bitwise.
    Gradients, formed in the forward's loop, are held to 1e-12 relative of
    the composite's.
    """

    @staticmethod
    def assert_forward_matches(out, ref_out):
        assert np.max(np.abs(out - ref_out)) <= 1e-13 * np.max(np.abs(ref_out))

    @staticmethod
    def assert_grad_matches(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def composite_output(t, s, scale):
        logits = T.matmul(T.transpose(T.mul(t, scale)), s)
        return T.matmul(s, T.softmax_cols(logits))

    @staticmethod
    def run(fused, shape, seed):
        g = np.random.default_rng(seed)
        t = Tensor(g.normal(size=shape), requires_grad=True)
        s = Tensor(g.normal(size=shape), requires_grad=True)
        ft, fs = FeatureMap(t), FeatureMap(s)
        with T.count_macs() as counter:
            if fused:
                out = spatial_cross_attention(ft, fs, 1.3)
            else:
                b = spatial_attention_matrix(ft, fs)
                y = T.reshape(T.matmul(fs.matrix(), b), shape)
                out = gaussian_kernel_distance(y, t, 1.3)
        out.backward()
        return out.item(), t.grad, s.grad, counter.macs

    @pytest.mark.parametrize("hw", [(2, 2), (7, 5), (32, 32)])
    def test_matches_composite_path(self, hw):
        shape = (4,) + hw
        out, dt, ds, macs = self.run(True, shape, seed=sum(hw))
        ref_out, ref_dt, ref_ds, ref_macs = self.run(False, shape, seed=sum(hw))
        assert abs(out - ref_out) <= 1e-13 * abs(ref_out)
        for got, want in ((dt, ref_dt), (ds, ref_ds)):
            self.assert_grad_matches(got, want)
        assert macs == ref_macs == 2 * 4 * (hw[0] * hw[1]) ** 2

    @pytest.mark.parametrize("trainable", ["ts", "t", "s"])
    @pytest.mark.parametrize("n", [35, T.ATTEND_BLOCK, T.ATTEND_BLOCK + 1, 1000, 1024])
    @pytest.mark.parametrize("c", [1, 4, 8])
    def test_blocks_match_composite(self, c, n, trainable):
        g = np.random.default_rng(c * n)
        t0, s0, u0 = (g.normal(size=(c, n)) for _ in range(3))
        scale, sigma = 1.0 / math.sqrt(c), 1.1
        y = T._attend_blocks(t0, s0, scale)[0]
        self.assert_forward_matches(y, self.composite_output(Tensor(t0), Tensor(s0), scale).data)

        def run(blocked, u_is_t):
            t = Tensor(t0, requires_grad="t" in trainable)
            s = Tensor(s0, requires_grad="s" in trainable)
            u = t if u_is_t else Tensor(u0, requires_grad=True)
            if blocked:
                out = T.spatial_kernel_distance(t, s, u, scale, sigma)
            else:
                out = gaussian_kernel_distance(self.composite_output(t, s, scale), u, sigma)
            out.backward()
            return out.item(), {"t": t.grad, "s": s.grad, "u": u.grad}

        for u_is_t in (True, False):
            out, grads = run(True, u_is_t)
            ref_out, ref_grads = run(False, u_is_t)
            assert abs(out - ref_out) <= 1e-13 * abs(ref_out)
            for name, want in ref_grads.items():
                if want is None:
                    assert grads[name] is None
                else:
                    self.assert_grad_matches(grads[name], want)
            assert (ref_grads["t"] is None) == ("t" not in trainable)
            assert (ref_grads["s"] is None) == ("s" not in trainable)

    @pytest.mark.parametrize("n", [35, T.ATTEND_BLOCK + 1])
    def test_distance_reads_the_checked_output(self, n):
        # the loop's gradient work leaves y's bits alone, and the distance
        # is `gaussian_kernel_distance` of that y, bit for bit
        g = np.random.default_rng(n)
        t, s, u = (g.normal(size=(3, n)) for _ in range(3))
        y = T._attend_blocks(t, s, 0.7)[0]
        assert np.array_equal(T._attend_blocks(t, s, 0.7, u)[0], y)
        got = T.spatial_kernel_distance(Tensor(t, requires_grad=True), Tensor(s), Tensor(u),
                                        0.7, 0.9)
        assert got.item() == gaussian_kernel_distance(Tensor(y), Tensor(u), 0.9).item()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="np.longdouble is float64 here: the reference would not be "
                               "more precise than the op")
    @pytest.mark.parametrize("n", [35, T.ATTEND_BLOCK, T.ATTEND_BLOCK + 1, 1000, 1024])
    @pytest.mark.parametrize("c", [1, 4, 8])
    def test_forward_within_extended_precision_reference(self, c, n):
        g = np.random.default_rng(c * n)
        t, s = g.normal(size=(c, n)), g.normal(size=(c, n))
        scale = 1.0 / math.sqrt(c)
        out = T._attend_blocks(t, s, scale)[0]
        want = extended_spatial_attend(t, s, scale)
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))

    def test_memory_is_far_below_one_n_by_n_matrix(self):
        c, n = 4, 4096
        g = np.random.default_rng(0)
        t = Tensor(g.normal(size=(c, n)), requires_grad=True)
        s = Tensor(g.normal(size=(c, n)), requires_grad=True)
        tracemalloc.start()
        try:
            T.spatial_kernel_distance(t, s, t, 0.5, 1.0).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two float64 blocks of ATTEND_BLOCK x N (P and dL) and ten (C, N)
        # arrays, 5.25 MiB, under the earlier bound of three blocks, 6 MiB
        # (the peak holds about eight (C, N) arrays); one N x N matrix is
        # 128 MiB
        assert peak < 2 * 8 * T.ATTEND_BLOCK * n + 10 * 8 * c * n

    def test_rejects_mismatched_operands(self):
        g = np.random.default_rng(0)
        a, b = Tensor(g.normal(size=(2, 3))), Tensor(g.normal(size=(3, 3)))
        with pytest.raises(ShapeError):
            T.spatial_kernel_distance(a, b, a, 1.0, 1.0)
        with pytest.raises(ShapeError):
            T.spatial_kernel_distance(a, a, b, 1.0, 1.0)
        with pytest.raises(RangeError):
            T.spatial_kernel_distance(a, a, a, 1.0, 0.0)


class TestNormalizationProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1.0, 100.0, 1000.0]))
    def test_rows_and_columns_sum_to_one(self, seed, scale):
        t, s = random_pair(seed, c=3, h=2, w=3, scale=scale)
        a = channel_attention_matrix(t.matrix(), s.matrix())
        assert np.all(np.abs(a.data.sum(axis=1) - 1.0) < 1e-9)
        b = spatial_attention_matrix(t, s)
        assert np.all(np.abs(b.data.sum(axis=0) - 1.0) < 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.1, 50.0))
    def test_argmax_invariant_under_positive_scaling(self, seed, c):
        t, s = random_pair(seed, c=3, h=2, w=2)
        a1 = channel_attention_matrix(t.matrix(), s.matrix()).data
        t_scaled = fmap(t.values.data * c)
        a2 = channel_attention_matrix(t_scaled.matrix(), s.matrix()).data
        assert np.array_equal(a1.argmax(axis=1), a2.argmax(axis=1))
        b1 = spatial_attention_matrix(t, s).data
        b2 = spatial_attention_matrix(t_scaled, s).data
        assert np.array_equal(b1.argmax(axis=0), b2.argmax(axis=0))

    def test_output_shape_matches_student(self):
        t, s = random_pair(11, c=4, h=3, w=5)
        assert channel_cross_attention(t, s).values.shape == s.values.shape
        assert spatial_output(t, s).shape == s.matrix().shape
        assert spatial_cross_attention(t, s, 1.0).shape == ()


class TestGradients:
    def test_gradcheck_wrt_student(self):
        t, _ = random_pair(12, c=2, h=2, w=2)
        x0 = Tensor(np.random.default_rng(13).normal(size=(2, 2, 2)))

        def f_channel(x):
            out = channel_cross_attention(t, FeatureMap(x))
            return T.sum_(T.mul(out.values, out.values))

        def f_spatial(x):
            return spatial_cross_attention(t, FeatureMap(x), 0.7)

        assert T.gradcheck(f_channel, x0) < 1e-4
        assert T.gradcheck(f_spatial, x0) < 1e-4

    def test_gradcheck_wrt_projectors(self):
        g = np.random.default_rng(14)
        t_raw = fmap(g.normal(size=(3, 2, 2)))
        s_raw = fmap(g.normal(size=(2, 2, 2)))
        p_s = make_projector(2, 2, g)
        weight0 = Tensor(g.normal(size=(2, 3)))

        def f(wt):
            p_t = (wt, Tensor(np.zeros(2)))
            s_f, s_fc, gk_ft, t_f = cross_net_features(t_raw, s_raw, p_t, p_s, 0.7)
            diff = T.sub(s_fc.values, t_f.values)
            return T.add(T.sum_(T.mul(diff, diff)), gk_ft)

        assert T.gradcheck(f, weight0) < 1e-4

    def test_teacher_path_is_gradient_stopped(self):
        g = np.random.default_rng(15)
        t_leaf = Tensor(g.normal(size=(3, 2, 2)), requires_grad=True)
        s_leaf = Tensor(g.normal(size=(2, 2, 2)), requires_grad=True)
        p_t = make_projector(3, 2, g)
        p_s = make_projector(2, 2, g)
        s_f, s_fc, gk_ft, t_f = cross_net_features(
            FeatureMap(t_leaf), FeatureMap(s_leaf), p_t, p_s, 1.0)
        loss = T.add(T.sum_(T.mul(s_fc.values, s_fc.values)), gk_ft)
        loss.backward(leaves=[t_leaf, s_leaf, p_t[0]])
        assert np.array_equal(t_leaf.grad, np.zeros_like(t_leaf.data))
        assert np.any(s_leaf.grad != 0.0)
        assert np.any(p_t[0].grad != 0.0)

    def test_mismatched_projector_widths(self):
        g = np.random.default_rng(16)
        t_raw, s_raw = random_pair(17, c=2)
        with pytest.raises(ConfigError):
            cross_net_features(t_raw, s_raw, make_projector(2, 3, g),
                               make_projector(2, 4, g), 1.0)
