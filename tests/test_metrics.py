import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skdistill.errors import NonFiniteError, RangeError, ShapeError
from skdistill.metrics import psnr, ssim

from oracles import brute_force_ssim_window, gaussian_window, window_ssim


class TestPsnr:
    def test_identical_hits_cap(self):
        img = np.random.default_rng(0).random((1, 8, 8))
        assert psnr(img, img, 1.0) == 100.0

    def test_uniform_offset_closed_form(self):
        a = np.zeros((1, 8, 8))
        b = np.full((1, 8, 8), 0.1)
        assert abs(psnr(a, b, 1.0) - 20.0) < 1e-6

    def test_eight_bit_closed_form(self):
        # MSE exactly 1 on range 255
        a = np.zeros((1, 4, 4))
        b = np.ones((1, 4, 4))
        want = 10.0 * math.log10(255.0 ** 2)
        assert abs(psnr(a, b, 255.0) - want) < 1e-12
        assert abs(want - 48.1308036087) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_symmetric(self, seed):
        g = np.random.default_rng(seed)
        a, b = g.random((1, 6, 6)), g.random((1, 6, 6))
        assert psnr(a, b) == psnr(b, a)

    def test_strictly_decreasing_in_mse(self):
        a = np.zeros((1, 8, 8))
        values = [psnr(a, np.full_like(a, d), 1.0) for d in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))

    def test_bad_range(self):
        with pytest.raises(RangeError):
            psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), data_range=0.0)


class TestSsim:
    def test_identical_is_exactly_one(self):
        img = np.random.default_rng(1).random((1, 16, 16))
        assert ssim(img, img, 1.0) == 1.0

    def test_constant_images_closed_form(self):
        a = np.full((1, 16, 16), 0.5)
        b = np.full((1, 16, 16), 0.25)
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        want = ((2 * 0.5 * 0.25 + c1) * c2) / ((0.5 ** 2 + 0.25 ** 2 + c1) * c2)
        got = ssim(a, b, 1.0)
        assert abs(got - want) < 1e-12
        assert abs(got - 0.8001) < 1e-4

    def test_matches_per_window_brute_force(self):
        g = np.random.default_rng(2)
        a, b = g.random((1, 16, 16)), g.random((1, 16, 16))
        window = gaussian_window()
        weights = list(window.reshape(-1))
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        scores = []
        for i in range(16 - 11 + 1):
            for j in range(16 - 11 + 1):
                pa = list(a[0, i:i + 11, j:j + 11].reshape(-1))
                pb = list(b[0, i:i + 11, j:j + 11].reshape(-1))
                scores.append(brute_force_ssim_window(pa, pb, weights, c1, c2))
        want = sum(scores) / len(scores)
        assert abs(ssim(a, b, 1.0) - want) < 1e-10

    @pytest.mark.parametrize("shape", [(1, 11, 11), (1, 11, 40), (1, 32, 32), (3, 64, 64),
                                       (3, 128, 128)])
    def test_separable_filter_matches_the_2d_window(self, shape):
        g = np.random.default_rng(shape[2])
        a = g.random(shape)
        b = np.clip(a + g.normal(scale=0.1, size=shape), 0.0, 1.0)
        assert abs(ssim(a, b, 1.0) - window_ssim(a, b, 1.0)) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_symmetric_and_bounded(self, seed):
        g = np.random.default_rng(seed)
        a, b = g.random((1, 12, 12)), g.random((1, 12, 12))
        assert ssim(a, b) == ssim(b, a)
        assert abs(ssim(a, b)) <= 1.0

    def test_strong_noise_scores_below_ninety(self):
        g = np.random.default_rng(3)
        clean = g.random((1, 16, 16))
        noisy = np.clip(clean + g.normal(scale=0.3, size=clean.shape), 0.0, 1.0)
        assert ssim(clean, noisy, 1.0) < 0.9

    def test_multichannel_averages(self):
        g = np.random.default_rng(4)
        a, b = g.random((3, 16, 16)), g.random((3, 16, 16))
        per_channel = [ssim(a[c:c + 1], b[c:c + 1]) for c in range(3)]
        assert ssim(a, b) == pytest.approx(np.mean(per_channel), abs=1e-15)

    def test_too_small_image(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)))

    def test_plane_without_channel_axis(self):
        with pytest.raises(ShapeError, match=r"\(C,H,W\)"):
            ssim(np.zeros((16, 16)), np.zeros((16, 16)))


@pytest.mark.parametrize("metric", [psnr, ssim])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_non_finite_input_is_refused(metric, bad, side):
    pair = [np.zeros((1, 16, 16)), np.zeros((1, 16, 16))]
    pair[side][0, 3, 5] = bad
    with pytest.raises(NonFiniteError):
        metric(*pair)
