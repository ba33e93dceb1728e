import json

import pytest

from skdistill.config import (
    RunConfig,
    TrainConfig,
    config_hash,
    load_run_config,
    save_run_config,
)
from skdistill.data import CorpusSpec
from skdistill.errors import ConfigError
from skdistill.losses import LossWeights
from skdistill.models import ModelConfig


class TestDefaults:
    def test_loss_weight_defaults(self):
        w = LossWeights()
        assert (w.alpha1, w.alpha2, w.alpha3) == (0.5, 0.2, 0.2)
        assert w.tau == 1e-6
        assert w.sigma == 1.0
        assert w.gk_mode == "per-element-mean"
        assert w.spatial_axis == "columns"

    def test_train_defaults(self):
        t = TrainConfig()
        assert t.batch_size == 8
        assert t.lr_max == 2e-4
        assert t.lr_min == 1e-6
        assert (t.beta1, t.beta2) == (0.9, 0.999)
        assert t.adam_eps == 1e-8

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_max=1e-6, lr_min=2e-4)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            LossWeights(sigma=0.0)
        with pytest.raises(ConfigError):
            LossWeights(tau=-1.0)
        with pytest.raises(ConfigError):
            LossWeights(gk_mode="rms")
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigError):
            CorpusSpec(base_seed=-1)


class TestRoundtrip:
    def make_run(self):
        return RunConfig(
            model=ModelConfig([2, 3], 8, 16, 1),
            student_model=ModelConfig([1, 2], 4, 16, 1),
            train=TrainConfig(epochs=3, batch_size=4, seed=11,
                              loss=LossWeights(alpha2=0.3, tau=0.5),
                              distill_blocks=[0, 2]),
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

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)


class TestHash:
    def test_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        assert config_hash(a) == config_hash(b)
        c = RunConfig(train=TrainConfig(seed=99))
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 64
