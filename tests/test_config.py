import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skdistill.config import (
    LR_MIN,
    RunConfig,
    TrainConfig,
    config_hash,
    load_run_config,
    save_run_config,
)
from skdistill.data import CorpusSpec, make_samples, normalize
from skdistill.errors import ConfigError, SkdError
from skdistill.losses import LossWeights
from skdistill.models import ModelConfig, build_net
from skdistill.tensor import Tensor

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


class TestDefaults:
    def test_loss_weight_defaults(self):
        w = LossWeights()
        assert (w.alpha1, w.alpha2, w.alpha3) == (0.5, 0.2, 0.2)
        assert w.tau == 1e-6
        assert w.sigma == 1.0
        assert w.unified_dim == 8
        assert [f.name for f in dataclasses.fields(w)] == \
            ["alpha1", "alpha2", "alpha3", "sigma", "tau", "unified_dim"]

    def test_train_defaults(self):
        t = TrainConfig()
        assert t.batch_size == 8
        assert t.lr_max == 2e-4
        assert LR_MIN == 1e-6
        assert [f.name for f in dataclasses.fields(t)] == \
            ["epochs", "batch_size", "lr_max", "seed", "eval_interval", "loss"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_max=1e-7)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            LossWeights(sigma=0.0)
        with pytest.raises(ConfigError):
            LossWeights(tau=-1.0)
        with pytest.raises(ConfigError):
            LossWeights(unified_dim=0)
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigError):
            CorpusSpec(base_seed=-1)


class TestRoundtrip:
    def make_run(self):
        return RunConfig(
            model=ModelConfig([2, 3], 8, 1),
            student_model=ModelConfig([1, 2], 4, 1),
            train=TrainConfig(epochs=3, batch_size=4, seed=11,
                              loss=LossWeights(alpha2=0.3, tau=0.5, unified_dim=16)),
            data=CorpusSpec(count=12, patch_size=16, task="deblur", blur_sigma=0.9),
        )

    def test_dict_roundtrip(self):
        run = self.make_run()
        back = RunConfig.from_dict(run.to_dict())
        assert back == run

    def test_file_roundtrip(self, tmp_path):
        run = self.make_run()
        path = tmp_path / "run.json"
        save_run_config(run, path)
        assert load_run_config(path) == run
        raw = json.loads(path.read_text())
        assert raw["train"]["loss"]["alpha1"] == 0.5
        assert raw["data"]["task"] == "deblur"
        assert raw["model"]["level_layers"] == [2, 3]

    def test_unknown_fields_rejected(self):
        blob = self.make_run().to_dict()
        blob["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError):
            RunConfig.from_dict(blob)
        blob2 = self.make_run().to_dict()
        blob2["data"]["format"] = "png"
        with pytest.raises(ConfigError):
            RunConfig.from_dict(blob2)

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
    def test_shipped_config_loads(self, path):
        run = load_run_config(path)
        assert RunConfig.from_dict(run.to_dict()) == run

    # a net that cannot read its config's own corpus fails at step 1 of a run
    @pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
    def test_shipped_config_nets_run_on_its_data(self, path):
        run = load_run_config(path)
        (sample,) = make_samples(run.data, count=1)
        x = Tensor(normalize(sample.degraded))
        for cfg in filter(None, (run.model, run.student_model)):
            assert build_net(cfg, 0).forward(x).shape == sample.clean.shape

    @pytest.mark.parametrize("net", ["model", "student_model"])
    def test_net_channels_must_match_the_data(self, net):
        blob = self.make_run().to_dict()
        blob[net]["input_channels"] = 3
        with pytest.raises(ConfigError,
                           match=f"data.channels 1 differs from {net}.input_channels 3"):
            RunConfig.from_dict(blob)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)

    # json.loads raises UnicodeDecodeError and RecursionError for these
    @pytest.mark.parametrize("blob", [b'{"model": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
                             ids=["bad-utf8", "deep"])
    def test_undecodable_file_names_the_path(self, tmp_path, blob):
        path = tmp_path / "broken.json"
        path.write_bytes(blob)
        with pytest.raises(ConfigError, match="broken.json"):
            load_run_config(path)


class TestHash:
    def test_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        assert config_hash(a) == config_hash(b)
        c = RunConfig(train=TrainConfig(seed=99))
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 64


class TestTypedReader:
    @pytest.mark.parametrize("blob, path", [
        ({"train": 5}, "train"),
        ({"model": {"base_channels": "x"}}, "model.base_channels"),
        ({"data": {"count": "3"}}, "data.count"),
        ({"train": {"loss": {"tau": "a"}}}, "train.loss.tau"),
        ({"data": {"count": True}}, "data.count"),
        ({"model": {"level_layers": [1, 2.0]}}, "model.level_layers[1]"),
        ({"student_model": []}, "student_model"),
    ])
    def test_wrong_type_names_the_field(self, blob, path):
        with pytest.raises(ConfigError, match=re.escape(path)):
            RunConfig.from_dict(blob)

    @pytest.mark.parametrize("blob, path", [
        ({"train": {"loss": {"tau": float("nan")}}}, "train.loss.tau"),
        ({"train": {"loss": {"sigma": float("inf")}}}, "train.loss.sigma"),
        ({"train": {"lr_max": float("inf")}}, "train.lr_max"),
        ({"data": {"blur_sigma": float("-inf")}}, "data.blur_sigma"),
        ({"data": {"noise_sigma": float("nan")}}, "data.noise_sigma"),
    ])
    def test_non_finite_float_names_the_field(self, blob, path):
        with pytest.raises(ConfigError, match=re.escape(path) + " must be finite"):
            RunConfig.from_dict(blob)

    def test_json_non_finite_literals_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"train": {"loss": {"tau": NaN, "sigma": Infinity}, '
                        '"lr_max": Infinity}, "data": {"noise_sigma": NaN}}')
        with pytest.raises(ConfigError, match="must be finite"):
            load_run_config(path)

    def test_int_accepted_where_float_declared(self):
        run = RunConfig.from_dict({"train": {"lr_max": 1, "loss": {"sigma": 2}}})
        assert run.train.lr_max == 1
        assert run.train.loss.sigma == 2
        assert RunConfig.from_dict(run.to_dict()) == run

    def test_unset_optionals_written_as_null(self):
        blob = RunConfig().to_dict()
        assert blob["student_model"] is None
        assert RunConfig.from_dict(blob) == RunConfig()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _nested_dataclass(hint):
    for candidate in (hint, *typing.get_args(hint)):
        if dataclasses.is_dataclass(candidate):
            return candidate
    return None


def config_blobs(cls):
    """Dicts over cls's field names (plus a stray key) with JSON values;
    nested dataclass fields also get dicts of their own fields."""
    hints = typing.get_type_hints(cls)
    optional = {}
    for f in dataclasses.fields(cls):
        nested = _nested_dataclass(hints[f.name])
        optional[f.name] = JSON_VALUES | config_blobs(nested) if nested else JSON_VALUES
    optional["stray"] = JSON_VALUES
    return st.fixed_dictionaries({}, optional=optional)


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(config_blobs(RunConfig) | JSON_VALUES)
    def test_builds_or_raises_skd_error(self, blob):
        try:
            run = RunConfig.from_dict(blob)
        except SkdError:
            return
        again = RunConfig.from_dict(run.to_dict())
        assert json.dumps(again.to_dict(), sort_keys=True) == \
            json.dumps(run.to_dict(), sort_keys=True)
