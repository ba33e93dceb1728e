import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skdistill import tensor as T
from skdistill.attention import (
    FeatureMap,
    channel_cross_attention,
    spatial_cross_attention,
)
from skdistill.errors import (
    ConfigError,
    DegenerateFeatureError,
    NonFiniteError,
    ShapeError,
)
from skdistill.losses import (
    LossWeights,
    PhiExtractor,
    contrastive_loss_from_features,
    gaussian_kernel_distance,
    gk_block_loss,
    gk_feature_loss,
    reconstruction_loss,
    total_loss,
)
from skdistill.tensor import Tensor

from oracles import brute_force_channel, brute_force_gk, brute_force_spatial


def fmap(arr):
    return FeatureMap(Tensor(np.asarray(arr, dtype=np.float64)))


class TestGaussianKernelDistance:
    def test_zero_at_equal_inputs(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        assert gaussian_kernel_distance(x, x, 1.0).item() == 0.0

    def test_closed_form_at_two_sigma_squared(self):
        # constant offset sigma*sqrt(2) gives mean squared distance 2 sigma^2
        for sigma in (1.0, 0.7, 3.0):
            x = Tensor(np.zeros(5))
            y = Tensor(np.full(5, sigma * math.sqrt(2.0)))
            got = gaussian_kernel_distance(x, y, sigma).item()
            assert abs(got - (1.0 - math.exp(-1.0))) < 1e-12

    def test_single_element_closed_form(self):
        # one element: the mean squared distance is the squared distance, 2 sigma^2
        got = gaussian_kernel_distance(Tensor([0.0]), Tensor([math.sqrt(2.0)]), 1.0).item()
        assert abs(got - (1.0 - math.exp(-1.0))) < 1e-12

    def test_monotone_approach_to_one(self):
        values = [gaussian_kernel_distance(Tensor([0.0]), Tensor([d]), 1.0).item()
                  for d in (0.5, 1.0, 2.0, 3.0, 5.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert values[-1] > 0.999996

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_symmetric_and_bounded(self, seed):
        g = np.random.default_rng(seed)
        x, y = Tensor(g.normal(size=6)), Tensor(g.normal(size=6))
        ab = gaussian_kernel_distance(x, y).item()
        ba = gaussian_kernel_distance(y, x).item()
        assert ab == ba
        assert 0.0 <= ab < 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gaussian_kernel_distance(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_gradcheck(self):
        g = np.random.default_rng(1)
        y = Tensor(g.normal(size=(2, 3)))
        err = T.gradcheck(lambda x: gaussian_kernel_distance(x, y, 0.8),
                          Tensor(g.normal(size=(2, 3))))
        assert err < 1e-4

    def test_gradcheck_composed_with_softmax_mixing(self):
        g = np.random.default_rng(2)
        y = Tensor(g.normal(size=(3, 4)))
        t = Tensor(g.normal(size=(3, 4)))
        err = T.gradcheck(
            lambda x: gaussian_kernel_distance(T.matmul(T.softmax_rows(x), y), t),
            Tensor(g.normal(size=(3, 3))))
        assert err < 1e-4


class TestGkFeatureLoss:
    def test_equal_distances_give_two_d_per_block(self):
        w = LossWeights()
        t = fmap(np.zeros((2, 1, 2)))
        s = fmap(np.full((2, 1, 2), 0.5))
        d = gaussian_kernel_distance(s.values, t.values, w.sigma).item()
        loss = gk_block_loss(s, s, s, t, w).item()
        assert abs(loss - 2.0 * d) < 1e-12

    def test_identity_composition_is_zero(self):
        s = fmap([[[0.7]]])
        t = fmap([[[0.7]]])
        s_fc = channel_cross_attention(t, s)
        s_ft = spatial_cross_attention(t, s)
        assert np.allclose(s_fc.values.data, s.values.data)
        assert np.allclose(s_ft.values.data, s.values.data)
        w = LossWeights()
        assert gk_feature_loss([(s, s_fc, s_ft, t)], w).item() == 0.0

    def test_hand_case_matches_scalar_pipeline(self):
        t_rows = [[1.0, 0.0], [0.0, 1.0]]
        s_rows = [[1.0, 2.0], [3.0, 4.0]]
        lam = math.sqrt(2.0)
        w = LossWeights(sigma=1.0)
        t, s = fmap([[r] for r in t_rows]), fmap([[r] for r in s_rows])
        s_fc = channel_cross_attention(t, s)
        s_ft = spatial_cross_attention(t, s)
        got = gk_feature_loss([(s, s_fc, s_ft, t)], w).item()

        fc_rows, _ = brute_force_channel(t_rows, s_rows, lam)
        ft_rows, _ = brute_force_spatial(t_rows, s_rows, lam)
        want = brute_force_gk(s_rows, t_rows, 1.0, True) + 0.5 * (
            brute_force_gk(fc_rows, t_rows, 1.0, True)
            + brute_force_gk(ft_rows, t_rows, 1.0, True))
        assert abs(got - want) < 1e-12

    def test_multi_block_sum(self):
        w = LossWeights()
        t = fmap(np.zeros((1, 1, 1)))
        s = fmap(np.ones((1, 1, 1)))
        one = gk_block_loss(s, s, s, t, w).item()
        total = gk_feature_loss([(s, s, s, t), (s, s, s, t)], w).item()
        assert abs(total - 2.0 * one) < 1e-12

    def test_no_blocks(self):
        with pytest.raises(ConfigError, match="at least one block"):
            gk_feature_loss([], LossWeights())


class TestContrastiveLoss:
    def test_uniform_similarities_give_log_b_plus_one(self):
        g = np.random.default_rng(2)
        phi = PhiExtractor(in_channels=1, seed=0)
        s_r = Tensor(g.normal(size=(1, 8, 8)))
        t_r = Tensor(g.normal(size=(1, 8, 8)))
        negatives = [phi(t_r)] * 8  # identical to the positive: all cosines equal
        loss = contrastive_loss_from_features(phi(s_r), phi(t_r), negatives, 1e-6).item()
        assert abs(loss - math.log(9.0)) < 1e-12

    def test_derived_two_point_value(self):
        # cos(anchor, pos) = 1, cos(anchor, neg) = -1, tau = 0.5
        u = np.array([3.0, 4.0])
        loss = contrastive_loss_from_features(Tensor(u), Tensor(u), [Tensor(-u)], 0.5).item()
        want = -math.log(math.exp(2.0) / (math.exp(2.0) + math.exp(-2.0)))
        assert abs(loss - want) < 1e-12
        assert abs(loss - 0.0181499) < 1e-7

    def test_hard_max_limit(self):
        anchor = Tensor([1.0, 0.0])
        negatives = [Tensor([0.3, 0.7]), Tensor([-0.2, 0.9])]
        loss = contrastive_loss_from_features(anchor, anchor, negatives, 1e-6)
        assert loss.item() == 0.0

    def test_monotone_in_positive_cosine(self):
        anchor = Tensor([1.0, 0.0])
        neg = [Tensor([0.2, math.sqrt(1 - 0.2 ** 2)]), Tensor([-0.4, math.sqrt(1 - 0.4 ** 2)])]
        values = [contrastive_loss_from_features(
                      anchor, Tensor([c, math.sqrt(1 - c * c)]), neg, 0.5).item()
                  for c in np.linspace(-0.9, 0.9, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cosine_scale_invariance(self):
        g = np.random.default_rng(3)
        u, v, n = (g.normal(size=16) for _ in range(3))
        base = contrastive_loss_from_features(Tensor(u), Tensor(v), [Tensor(n)], 0.5).item()
        for scale in (1e-3, 7.5, 1e4):
            for args in ((u * scale, v, n), (u, v * scale, n), (u, v, n * scale)):
                anchor, pos, neg = map(Tensor, args)
                got = contrastive_loss_from_features(anchor, pos, [neg], 0.5).item()
                assert abs(got - base) < 1e-9

    def test_zero_norm_feature_raises(self):
        for zero in range(3):
            anchor, pos, neg = (Tensor(np.zeros(4) if i == zero else np.ones(4))
                                for i in range(3))
            with pytest.raises(DegenerateFeatureError):
                contrastive_loss_from_features(anchor, pos, [neg], 0.5)

    def test_feature_shape_mismatch(self):
        with pytest.raises(ShapeError, match="matching shapes"):
            contrastive_loss_from_features(Tensor(np.ones(4)), Tensor(np.ones(4)),
                                           [Tensor(np.ones(5))], 0.5)

    def test_gradient_flows_to_anchor_only(self):
        g = np.random.default_rng(4)
        phi = PhiExtractor(in_channels=1, seed=0)
        s_r = Tensor(g.normal(size=(1, 8, 8)), requires_grad=True)
        t_r = Tensor(g.normal(size=(1, 8, 8)), requires_grad=True)
        neg = Tensor(g.normal(size=(1, 8, 8)), requires_grad=True)
        # the distillation call form: reference and negatives enter detached
        loss = contrastive_loss_from_features(phi(s_r), phi(t_r.detach()),
                                              [phi(neg.detach())], 0.5)
        loss.backward(leaves=[s_r, t_r, neg])
        assert np.any(s_r.grad != 0.0)
        assert np.array_equal(t_r.grad, np.zeros_like(t_r.data))
        assert np.array_equal(neg.grad, np.zeros_like(neg.data))

    def test_gradcheck_at_moderate_tau(self):
        g = np.random.default_rng(5)
        phi = PhiExtractor(in_channels=1, seed=1)
        pos = phi(Tensor(g.normal(size=(1, 8, 8))))
        negs = [phi(Tensor(g.normal(size=(1, 8, 8)))) for _ in range(2)]
        err = T.gradcheck(
            lambda x: contrastive_loss_from_features(phi(x), pos, negs, 0.5),
            Tensor(g.normal(size=(1, 8, 8))))
        assert err < 1e-4

    def test_needs_negatives(self):
        phi = PhiExtractor(in_channels=1, seed=0)
        img = Tensor(np.ones((1, 8, 8)))
        with pytest.raises(ConfigError):
            contrastive_loss_from_features(phi(img), phi(img), [], 0.5)


class TestReconstructionLoss:
    def test_identical_images(self):
        x = Tensor(np.random.default_rng(6).normal(size=(1, 4, 4)))
        assert reconstruction_loss(x, x).item() == 0.0

    def test_constant_offset(self):
        x = Tensor(np.zeros((1, 4, 4)))
        y = Tensor(np.full((1, 4, 4), 0.5))
        assert reconstruction_loss(x, y).item() == pytest.approx(0.5)

    def test_half_offset(self):
        x = np.zeros((1, 2, 4))
        y = x.copy()
        y[0, :, :2] = 0.2
        assert reconstruction_loss(Tensor(x), Tensor(y)).item() == pytest.approx(0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 2, 3))))

    def test_gradcheck(self):
        g = np.random.default_rng(7)
        target = Tensor(g.normal(size=(1, 3, 3)))
        err = T.gradcheck(lambda x: reconstruction_loss(x, target),
                          Tensor(g.normal(size=(1, 3, 3))))
        assert err < 1e-4


class TestTotalLoss:
    def test_reference_arithmetic(self):
        w = LossWeights(alpha2=0.2, alpha3=0.2)
        assert total_loss(1.0, 0.5, 2.0, w).item() == pytest.approx(1.5, abs=1e-15)

    def test_zero_components_pass_through(self):
        w = LossWeights()
        assert total_loss(0.875, 0.0, 0.0, w).item() == 0.875

    def test_weight_annihilation(self):
        w = LossWeights(alpha2=0.0, alpha3=0.0)
        assert total_loss(0.25, 123.0, 456.0, w).item() == 0.25

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(st.just(0.0), st.floats(1e-3, 8.0)),
           st.one_of(st.just(0.0), st.floats(1e-3, 8.0)),
           st.one_of(st.just(0.0), st.floats(1e-3, 8.0)))
    def test_linearity_exact(self, r, g, c):
        w = LossWeights(alpha2=0.25, alpha3=0.5)
        assert total_loss(r, 0.0, 0.0, w).item() == r
        assert total_loss(0.0, g, 0.0, w).item() == 0.25 * g
        assert total_loss(0.0, 0.0, c, w).item() == 0.5 * c
        # doubling one component doubles its contribution exactly
        assert total_loss(0.0, 2.0 * g, 0.0, w).item() == 2.0 * (0.25 * g)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            total_loss(float("nan"), 0.0, 0.0, LossWeights())


class TestPhiExtractor:
    def test_deterministic_given_seed(self):
        a, b = PhiExtractor(1, seed=9), PhiExtractor(1, seed=9)
        for (wa, _), (wb, _) in zip(a.stages, b.stages):
            assert wa.data.tobytes() == wb.data.tobytes()
        c = PhiExtractor(1, seed=10)
        assert a.stages[0][0].data.tobytes() != c.stages[0][0].data.tobytes()

    def test_frozen(self):
        phi = PhiExtractor(1, seed=0)
        assert all(not w.requires_grad and not b.requires_grad for w, b in phi.stages)

    def test_output_is_flat_and_shape_tracks_input(self):
        phi = PhiExtractor(1, seed=0)
        out = phi(Tensor(np.zeros((1, 16, 16))))
        assert out.shape == (32 * 2 * 2,)

    def test_wrong_channel_count(self):
        phi = PhiExtractor(1, seed=0)
        with pytest.raises(ShapeError):
            phi(Tensor(np.zeros((3, 8, 8))))
