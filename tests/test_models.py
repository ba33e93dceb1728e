import hashlib
from pathlib import Path

import numpy as np
import pytest

from skdistill import tensor as T
from skdistill.config import load_run_config
from skdistill.errors import ConfigError, ShapeError
from skdistill.models import (
    ModelConfig,
    RestorationNet,
    build_net,
    compress_config,
    count_params_flops,
    reduction_percentages,
)
from skdistill.tensor import Tensor


def small_cfg(**kw):
    defaults = dict(level_layers=[1, 1], base_channels=4, input_channels=1)
    defaults.update(kw)
    return ModelConfig(**defaults)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def param_digest(net):
    h = hashlib.sha256()
    for name, p in net.params().items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(level_layers=[])
        with pytest.raises(ConfigError):
            ModelConfig(level_layers=[1, 0])
        with pytest.raises(ConfigError):
            ModelConfig(level_layers=[1], input_channels=2)

    def test_channel_doubling(self):
        cfg = ModelConfig([1, 1, 1], base_channels=12)
        assert [cfg.channels_at(l) for l in (1, 2, 3)] == [12, 24, 48]

    def test_roundtrip_dict(self):
        cfg = ModelConfig([2, 3], 8, 3)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"level_layers": [1], "bogus": 2})


class TestCompressConfig:
    def test_reference_pair(self):
        teacher = ModelConfig([4, 6, 6, 8], 48, 1)
        student = compress_config(teacher, [1, 2, 2, 4], 32)
        assert student.level_layers == [1, 2, 2, 4]
        assert student.base_channels == 32
        assert student.input_channels == teacher.input_channels

    def test_identity_scaling(self):
        teacher = ModelConfig([2, 3], 8, 1)
        student = compress_config(teacher, [2, 3], 8)
        assert student == teacher

    def test_second_reference_pair(self):
        teacher = ModelConfig([1, 2, 8, 8], 32, 1)
        student = compress_config(teacher, [1, 2, 4, 4], 16)
        assert student.level_layers == [1, 2, 4, 4]
        assert student.base_channels == 16

    def test_student_exceeding_teacher_rejected(self):
        teacher = ModelConfig([2, 2], 8, 1)
        with pytest.raises(ConfigError):
            compress_config(teacher, [3, 2], 8)
        with pytest.raises(ConfigError):
            compress_config(teacher, [2, 2], 16)
        with pytest.raises(ConfigError):
            compress_config(teacher, [2], 8)


class TestBuildNet:
    def test_deterministic_parameters(self):
        cfg = small_cfg()
        a, b = build_net(cfg, 3), build_net(cfg, 3)
        assert list(a.params()) == list(b.params())
        for name in a.params():
            assert a.params()[name].data.tobytes() == b.params()[name].data.tobytes()
        c = build_net(cfg, 4)
        assert a.params()["embed.w"].data.tobytes() != c.params()["embed.w"].data.tobytes()

    def test_student_params_strictly_fewer(self):
        teacher = ModelConfig([4, 6, 6, 8], 48, 1)
        student = compress_config(teacher, [1, 2, 2, 4], 32)
        tp, _ = count_params_flops(teacher, 128, 128)
        sp, _ = count_params_flops(student, 128, 128)
        assert sp < tp

    def test_smallest_config_forward(self):
        cfg = ModelConfig([1], base_channels=4, input_channels=1)
        net = build_net(cfg, 0)
        out, feats = net.forward_with_features(Tensor(np.zeros((1, 8, 8))))
        assert out.shape == (1, 8, 8)
        assert len(feats) == 1

    def test_from_state_roundtrip(self):
        net = build_net(small_cfg(), 2)
        arrays = dict(reversed(list(net.state_arrays().items())))
        loaded = RestorationNet.from_state(net.cfg, arrays)
        assert list(loaded.params()) == list(net.params())
        assert param_digest(loaded) == param_digest(net)
        for name, p in loaded.params().items():
            assert not p.requires_grad
            # shared, not copied, and read-only: the net cannot write into the state
            assert p.data.tobytes() == arrays[name].tobytes()
            assert np.shares_memory(p.data, arrays[name]) and not p.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                p.data += 1.0
            assert arrays[name].flags.writeable

    def test_from_state_converts_other_dtypes(self):
        net = build_net(small_cfg(), 2)
        arrays = {k: v.astype(np.float32) for k, v in net.state_arrays().items()}
        loaded = RestorationNet.from_state(net.cfg, arrays)
        for name, p in loaded.params().items():
            assert p.data.dtype == np.float64 and not p.data.flags.writeable
            assert p.data.tobytes() == arrays[name].astype(np.float64).tobytes()
            assert not np.shares_memory(p.data, arrays[name])

    def test_from_state_mismatch(self):
        net = build_net(small_cfg(), 0)
        edits = [
            (lambda s: s.pop("lat.b0.ln1.g"), "missing=\\['lat.b0.ln1.g'\\]"),
            (lambda s: s.update(stray=np.zeros(1)), "extra=\\['stray'\\]"),
            # `load_net` strips the `net.` prefix, so these are strays too
            (lambda s: s.update({"aux.junk": np.zeros(1)}), "extra=\\['aux.junk'\\]"),
            (lambda s: s.update({"opt.m.x": np.zeros(1)}), "extra=\\['opt.m.x'\\]"),
            (lambda s: s.update({"embed.b": np.zeros(5)}), "embed.b has shape \\(5,\\)"),
        ]
        for edit, message in edits:
            state = dict(net.state_arrays())
            edit(state)
            with pytest.raises(ConfigError, match=message):
                RestorationNet.from_state(net.cfg, state)

    # sha256 over (name, bytes) in parameter order, as `build_net` drew them
    # before the layout was split from the initialisation
    @pytest.mark.parametrize("config, section, seed, digest", [
        ("denoise32.json", "model", 0,
         "4083131a9a5c791d104b070b2f7f565488d92cf26592c3cab71ee2bd350b48a6"),
        ("denoise32.json", "model", 3,
         "18a3ee3f892e87fe7976eb6531ed49458d40109d2b7adb224e27ad31f3fe1110"),
        ("denoise32.json", "student_model", 0,
         "77736c5d6f11818a9e30aa025c7c0ed49c7ebae3473de2b2e2d88416f435bd67"),
        ("denoise32.json", "student_model", 3,
         "5dbec0d09d6410802c5449d493ad14783d92b7821be72f867f8c8c7f44a8af76"),
        ("student_restormer_shaped.json", "model", 0,
         "164304c59b2b47b45e68c17cdb468c36dc61d7fac3138ac828402a140d0054b0"),
        ("student_restormer_shaped.json", "model", 3,
         "3d7ce706c70f327426c7f6acbf9a27bc98a5eed5277b0131e56305d63eab1891"),
    ])
    def test_build_net_digest_is_pinned(self, config, section, seed, digest):
        cfg = getattr(load_run_config(CONFIGS / config), section)
        assert param_digest(build_net(cfg, seed)) == digest


class TestForward:
    def test_zero_final_layer_gives_identity(self):
        net = build_net(small_cfg(), 7)
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, size=(1, 8, 8)))
        out, _ = net.forward_with_features(x)
        assert np.array_equal(out.data, x.data)

    def test_three_level_feature_shapes(self):
        cfg = ModelConfig([1, 1, 1], base_channels=4, input_channels=1)
        net = build_net(cfg, 1)
        _, feats = net.forward_with_features(Tensor(np.zeros((1, 16, 16))))
        assert [f.channels for f in feats] == cfg.tap_channels() == [4, 8, 16, 8, 4]
        encoder_shapes = [f.values.shape for f in feats[:3]]
        assert encoder_shapes == [(4, 16, 16), (8, 8, 8), (16, 4, 4)]
        decoder_shapes = [f.values.shape for f in feats[3:]]
        assert decoder_shapes == [(8, 8, 8), (4, 16, 16)]

    def test_indivisible_extent_names_divisor(self):
        cfg = ModelConfig([1, 1, 1], base_channels=4, input_channels=1)
        net = build_net(cfg, 0)
        with pytest.raises(ShapeError, match="divisible by 4"):
            net.forward_with_features(Tensor(np.zeros((1, 10, 12))))

    @pytest.mark.parametrize("seed", range(5))
    def test_output_shape_matches_input(self, seed):
        g = np.random.default_rng(seed)
        levels = int(g.integers(1, 4))
        cfg = ModelConfig([int(g.integers(1, 3)) for _ in range(levels)],
                          base_channels=int(g.integers(2, 6)),
                          input_channels=int(g.choice([1, 3])))
        size = cfg.spatial_divisor * int(g.integers(2, 5))
        net = build_net(cfg, seed)
        x = Tensor(g.uniform(-1, 1, size=(cfg.input_channels, size, size)))
        out, feats = net.forward_with_features(x)
        assert out.shape == x.shape
        assert [f.channels for f in feats] == cfg.tap_channels()

    def test_forward_is_bitwise_deterministic(self):
        cfg = small_cfg(level_layers=[1, 2], base_channels=6)
        x_arr = np.random.default_rng(5).uniform(-1, 1, size=(1, 16, 16))
        runs = []
        for _ in range(2):
            net = build_net(cfg, 11)
            out, _ = net.forward_with_features(Tensor(x_arr))
            runs.append(out.data.tobytes())
        assert runs[0] == runs[1]

    def test_gradcheck_on_sampled_parameter(self):
        cfg = ModelConfig([1], base_channels=4, input_channels=1)
        net = build_net(cfg, 2)
        g = np.random.default_rng(3)
        # the zero-initialized final projection would hide interior gradients
        net.params()["final.w"].data = g.normal(scale=0.2, size=(1, 4, 3, 3))
        img = Tensor(g.uniform(-1, 1, size=(1, 8, 8)))
        name = "enc1.b0.attn.q.w" if "enc1.b0.attn.q.w" in net.params() else "lat.b0.attn.q.w"
        original = net.params()[name]

        def f(x):
            net._params[name] = x
            try:
                out, _ = net.forward_with_features(img)
                return T.sum_(T.mul(out, out))
            finally:
                net._params[name] = original

        leaf = Tensor(original.data.copy(), requires_grad=True)
        f(leaf).backward(leaves=[leaf])
        assert np.any(leaf.grad != 0.0)  # guard against a vacuous check
        assert T.gradcheck(f, Tensor(original.data.copy())) < 1e-4


class TestAccounting:
    @pytest.mark.parametrize("seed", range(22))
    def test_analytic_equals_instrumented(self, seed):
        g = np.random.default_rng(100 + seed)
        levels = int(g.integers(1, 4))
        cfg = ModelConfig([int(g.integers(1, 4)) for _ in range(levels)],
                          base_channels=int(g.integers(2, 7)),
                          input_channels=int(g.choice([1, 3])))
        # h != w, so a count that mixes up the two extents fails
        h, w = cfg.spatial_divisor * g.choice(np.arange(2, 6), size=2, replace=False)
        net = build_net(cfg, seed)
        params_analytic, flops_analytic = count_params_flops(cfg, int(h), int(w))
        assert params_analytic == sum(p.size for p in net.params().values())
        with T.count_macs() as counter:
            net.forward_with_features(Tensor(np.zeros((cfg.input_channels, h, w))))
        assert flops_analytic == 2 * counter.macs

    # taken from the hand-unrolled count that preceded the layout walk; these
    # are the three reference teacher -> student pairs at 128x128, and
    # `skdistill count --config T --baseline S` reports any pair
    @pytest.mark.parametrize("teacher, scale, channels, counts", [
        (ModelConfig([4, 6, 6, 8], 48, 3), [1, 2, 2, 4], 32,
         (21_636_771, 3_688_131, 41_702_031_360, 5_949_030_400)),
        (ModelConfig([1, 2, 8, 8], 32, 3), [1, 2, 4, 4], 16,
         (10_174_147, 1_121_379, 14_404_747_264, 1_963_687_936)),
        (ModelConfig([4, 4, 6, 6, 8], 48, 3), [2, 2, 2, 2, 4], 32,
         (86_562_339, 14_817_987, 49_520_001_024, 8_417_935_360)),
    ], ids=["restormer-shaped", "uformer-shaped", "drsformer-shaped"])
    def test_reference_pairs_are_pinned(self, teacher, scale, channels, counts):
        student = compress_config(teacher, scale, channels)
        tp, tf = count_params_flops(teacher, 128, 128)
        sp, sf = count_params_flops(student, 128, 128)
        assert (tp, sp, tf, sf) == counts

    @pytest.mark.parametrize("section, size, counts", [
        ("model", 32, (16_705, 20_389_888)),
        ("model", 64, (16_705, 81_559_552)),
        ("student_model", 32, (4_577, 5_410_816)),
        ("student_model", 64, (4_577, 21_643_264)),
    ])
    def test_denoise32_counts_are_pinned(self, section, size, counts):
        cfg = getattr(load_run_config(CONFIGS / "denoise32.json"), section)
        assert count_params_flops(cfg, size, size) == counts

    def test_reference_reduction_window(self):
        teacher = ModelConfig([4, 6, 6, 8], 48, 1)
        student = compress_config(teacher, [1, 2, 2, 4], 32)
        p_red, f_red = reduction_percentages(teacher, student, 128, 128)
        assert 80.0 <= p_red <= 90.0
        assert 80.0 <= f_red <= 90.0

    def test_five_level_config_supported(self):
        teacher = ModelConfig([4, 4, 6, 6, 8], 48, 1)
        student = compress_config(teacher, [2, 2, 2, 2, 4], 32)
        p_red, f_red = reduction_percentages(teacher, student, 128, 128)
        assert 80.0 <= p_red <= 90.0
        assert 80.0 <= f_red <= 90.0

    def test_bad_extents(self):
        with pytest.raises(ShapeError):
            count_params_flops(ModelConfig([1, 1], 4, 1), 9, 8)
