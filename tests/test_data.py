import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skdistill.data import (
    MAX_PATCH_SIZE,
    CorpusSpec,
    _blur,
    batch_indices,
    degrade,
    denormalize,
    make_clean_image,
    make_samples,
    normalize,
    read_image,
    write_image,
)
from skdistill.errors import ConfigError, RangeError, ShapeError, SkdError
from skdistill.metrics import psnr

from oracles import window_blur


class TestCleanCorpus:
    def test_deterministic(self):
        spec = CorpusSpec(count=4, patch_size=16, base_seed=7)
        a = make_samples(spec)
        b = make_samples(spec)
        assert all(x.clean.tobytes() == y.clean.tobytes() for x, y in zip(a, b))

    def test_single_small_image_range(self):
        spec = CorpusSpec(count=1, patch_size=8)
        (sample,) = make_samples(spec)
        img = sample.clean
        assert img.shape == (1, 8, 8)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_mean_calibration_over_thousand_images(self):
        spec = CorpusSpec(count=1000, patch_size=16, base_seed=11)
        means = [s.clean.mean() for s in make_samples(spec)]
        assert min(means) > 0.2
        assert max(means) < 0.8

    def test_first_index_offsets_are_fresh_images(self):
        spec = CorpusSpec(count=2, patch_size=8, base_seed=0)
        base = make_samples(spec)
        held = make_samples(spec, first_index=2, count=2)
        assert base[0].clean.tobytes() != held[0].clean.tobytes()


class TestSpecBounds:
    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", -0.1),
        ("blur_sigma", -1e-9),
        ("rain_density", -0.02),
        ("noise_sigma", float("nan")),
    ])
    def test_bad_strength_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CorpusSpec(**{field: value})

    def test_patch_size_cap_is_inclusive(self):
        assert CorpusSpec(patch_size=MAX_PATCH_SIZE).patch_size == MAX_PATCH_SIZE
        with pytest.raises(ConfigError, match="patch size"):
            CorpusSpec(patch_size=MAX_PATCH_SIZE + 1)


class TestDegrade:
    def test_noise_zero_sigma_is_identity(self):
        spec = CorpusSpec(count=1, patch_size=8, task="denoise", noise_sigma=0.0)
        clean = make_clean_image(spec, 0)
        assert np.array_equal(degrade(clean, spec, 5), clean)

    def test_blur_delta_kernel_is_identity(self):
        spec = CorpusSpec(count=1, patch_size=8, task="deblur", blur_sigma=0.0)
        clean = make_clean_image(spec, 0)
        assert np.array_equal(degrade(clean, spec, 5), clean)

    @pytest.mark.parametrize("sigma", [0.5, 1.2, 3.2])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_blur_matches_direct_window_sum(self, sigma, channels):
        spec = CorpusSpec(count=1, patch_size=24, channels=channels, task="deblur",
                          blur_sigma=sigma)
        clean = make_clean_image(spec, 0)
        assert np.max(np.abs(_blur(clean, sigma) - window_blur(clean, sigma))) < 1e-13

    def test_rain_zero_density_is_identity(self):
        spec = CorpusSpec(count=1, patch_size=8, task="derain", rain_density=0.0)
        clean = make_clean_image(spec, 0)
        assert np.array_equal(degrade(clean, spec, 5), clean)

    def test_unknown_task(self):
        # `degrade` reads the task from a spec, which refuses an unknown one
        with pytest.raises(ConfigError, match="task must be one of"):
            CorpusSpec(count=1, patch_size=8, task="sharpen")

    def test_deterministic_per_seed(self):
        spec = CorpusSpec(count=1, patch_size=16)
        clean = make_clean_image(spec, 0)
        a = degrade(clean, spec, 9)
        b = degrade(clean, spec, 9)
        c = degrade(clean, spec, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("task,param,grid", [
        ("denoise", "noise_sigma", [0.02, 0.05, 0.1, 0.2]),
        ("deblur", "blur_sigma", [0.4, 0.8, 1.6, 3.2]),
        ("derain", "rain_density", [0.02, 0.08, 0.3, 0.9]),
    ])
    def test_psnr_decreases_with_strength(self, task, param, grid):
        values = []
        for strength in grid:
            spec = CorpusSpec(count=1, patch_size=32, base_seed=2, task=task,
                              **{param: strength})
            clean = make_clean_image(spec, 0)
            out = degrade(clean, spec, seed=123)
            values.append(psnr(clean, out, 1.0))
        assert all(np.isfinite(values))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_degraded_stays_in_unit_range(self):
        for task in ("denoise", "deblur", "derain"):
            spec = CorpusSpec(count=1, patch_size=16, task=task,
                              noise_sigma=0.5, rain_density=0.5)
            out = degrade(make_clean_image(spec, 0), spec, 3)
            assert out.min() >= 0.0 and out.max() <= 1.0


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        assert normalize(np.array(0.0)) == -1.0
        assert normalize(np.array(1.0)) == 1.0
        assert normalize(np.array(0.5)) == 0.0

    def test_roundtrip_bitwise_on_8bit_grid(self):
        grid = np.arange(256, dtype=np.float64) / 256.0
        back = denormalize(normalize(grid))
        assert back.tobytes() == grid.tobytes()

    def test_pipeline_outputs_within_bounds(self):
        spec = CorpusSpec(count=3, patch_size=16, noise_sigma=0.4)
        for sample in make_samples(spec):
            z = normalize(sample.degraded)
            assert z.min() >= -1.0 and z.max() <= 1.0

    def test_out_of_range_rejected(self):
        # NaN fails every comparison, so it must not slip past as in range
        for bad in ([1.5], [-0.5], [[[np.nan, 0.5]]], [0.5, np.nan]):
            with pytest.raises(RangeError):
                normalize(np.array(bad))


class TestBatching:
    def test_sixteen_over_eight_gives_two(self):
        batches = batch_indices(16, 8, seed=0, epoch=0)
        assert len(batches) == 2
        assert sorted(x for b in batches for x in b) == list(range(16))

    def test_partial_batch_dropped(self):
        batches = batch_indices(17, 8, seed=0, epoch=0)
        assert len(batches) == 2
        assert sum(len(b) for b in batches) == 16

    def test_same_seed_same_sequence(self):
        def epochs(seed):
            return [batch_indices(20, 4, seed=seed, epoch=e) for e in range(2)]

        assert epochs(3) == epochs(3)
        assert epochs(3) != epochs(4)

    def test_epochs_reshuffle(self):
        e0 = batch_indices(32, 8, seed=0, epoch=0)
        e1 = batch_indices(32, 8, seed=0, epoch=1)
        assert e0 != e1

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            batch_indices(0, 4, seed=0, epoch=0)


class TestImageIo:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.arange(64, dtype=np.float64).reshape(1, 8, 8) / 255.0
        path = tmp_path / "x.pgm"
        write_image(path, img)
        back = read_image(path)
        assert back.tobytes() == img.tobytes()

    def test_ppm_roundtrip(self, tmp_path):
        g = np.random.default_rng(0)
        img = g.integers(0, 256, size=(3, 6, 5)).astype(np.float64) / 255.0
        path = tmp_path / "x.ppm"
        write_image(path, img)
        back = read_image(path)
        assert back.shape == (3, 6, 5)
        assert back.tobytes() == img.tobytes()

    def test_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_image(tmp_path / "x.pgm", np.zeros((2, 4, 4)))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ConfigError):
            read_image(path)

    @pytest.mark.parametrize("blob", [b"", b"P5", b"P5\n4 4", b"P5\n4 4\n# no maxval\n",
                                      b"P5\n4 x\n255\n", b"P5\n-4 4\n255\n",
                                      b"P6\n0 4\n255\n", b"P5\n4 4\n\xff\xfe\n",
                                      b"P5\n" + b"1" * 4301 + b" 4\n255\n"])
    def test_bad_header_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob + bytes(64))
        with pytest.raises(ConfigError):
            read_image(path)


_FIELD = (st.integers(0, 300).map(lambda n: str(n).encode())
          | st.sampled_from([b"-3", b"P2", b"P5", b"0x10"])
          # digit runs either side of int64 and of CPython's int-string limit
          | st.sampled_from([19, 20, 4300, 4301]).map(lambda n: b"1" * n)
          | st.binary(max_size=4))
_SEP = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# note\n"])
_BAD_SEP = st.sampled_from([b"", b"#", b"\x00"])


@st.composite
def _pnm_bytes(draw):
    """A PGM/PPM header with at most one field or separator replaced by an
    arbitrary one, and a payload near the size the header declares."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    w, h = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    fields = [magic, str(w).encode(), str(h).encode(), b"255"]
    seps = draw(st.lists(_SEP, min_size=4, max_size=4))
    replaced = draw(st.integers(0, 8))
    if replaced < 4:
        fields[replaced] = draw(_FIELD)
    elif replaced < 8:
        seps[replaced - 4] = draw(_BAD_SEP)
    size = w * h * (3 if magic == b"P6" else 1)
    payload = draw(st.binary(min_size=max(0, size - 2), max_size=size + 2))
    return b"".join(f + s for f, s in zip(fields, seps)) + payload


class TestReadImageFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=300) | _pnm_bytes())
    def test_random_bytes(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        path.write_bytes(blob)
        try:
            img = read_image(path)
        except SkdError:
            return
        assert img.dtype == np.float64 and img.ndim == 3 and img.shape[0] in (1, 3)
        assert np.isfinite(img).all() and img.min() >= 0.0 and img.max() <= 1.0


def test_samples_are_deterministic_and_tagged():
    spec = CorpusSpec(count=3, patch_size=8, task="deblur")
    a, b = make_samples(spec), make_samples(spec)
    for sa, sb in zip(a, b):
        assert sa.task == "deblur"
        assert sa.clean.tobytes() == sb.clean.tobytes()
        assert sa.degraded.tobytes() == sb.degraded.tobytes()
