"""Run configuration: dataclasses mirrored 1:1 by the JSON config files."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import CorpusSpec
from .errors import ConfigError
from .losses import LossWeights
from .models import ModelConfig


@dataclass
class TrainConfig:
    """Optimization knobs shared by teacher training and distillation."""

    epochs: int = 10
    batch_size: int = 8
    lr_max: float = 2e-4
    lr_min: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    eval_interval: int = 200
    loss: LossWeights = field(default_factory=LossWeights)
    distill_blocks: list[int] | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr_max >= self.lr_min > 0:
            raise ConfigError(
                f"need lr_max >= lr_min > 0, got lr_max={self.lr_max} lr_min={self.lr_min}")
        if self.eval_interval < 1:
            raise ConfigError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        d = {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr_max": self.lr_max,
            "lr_min": self.lr_min,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "adam_eps": self.adam_eps,
            "seed": self.seed,
            "eval_interval": self.eval_interval,
            "loss": {
                "alpha1": self.loss.alpha1,
                "alpha2": self.loss.alpha2,
                "alpha3": self.loss.alpha3,
                "sigma": self.loss.sigma,
                "tau": self.loss.tau,
                "gk_mode": self.loss.gk_mode,
                "lambda_kind": self.loss.lambda_kind,
                "lambda_value": self.loss.lambda_value,
                "spatial_axis": self.loss.spatial_axis,
            },
        }
        if self.distill_blocks is not None:
            d["distill_blocks"] = list(self.distill_blocks)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        loss_dict = d.pop("loss", {})
        known_loss = {"alpha1", "alpha2", "alpha3", "sigma", "tau", "gk_mode",
                      "lambda_kind", "lambda_value", "spatial_axis"}
        unknown = set(loss_dict) - known_loss
        if unknown:
            raise ConfigError(f"unknown LossWeights fields: {sorted(unknown)}")
        known = {"epochs", "batch_size", "lr_max", "lr_min", "beta1", "beta2",
                 "adam_eps", "seed", "eval_interval", "distill_blocks"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown TrainConfig fields: {sorted(unknown)}")
        return cls(loss=LossWeights(**loss_dict), **d)


@dataclass
class RunConfig:
    """Everything a reproduction run needs: models, training, data."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: CorpusSpec = field(default_factory=CorpusSpec)
    student_model: ModelConfig | None = None

    def to_dict(self) -> dict:
        d = {
            "model": self.model.to_dict(),
            "train": self.train.to_dict(),
            "data": {
                "count": self.data.count,
                "patch_size": self.data.patch_size,
                "channels": self.data.channels,
                "base_seed": self.data.base_seed,
                "task": self.data.task,
                "noise_sigma": self.data.noise_sigma,
                "blur_sigma": self.data.blur_sigma,
                "rain_density": self.data.rain_density,
                "rain_angle": self.data.rain_angle,
                "rain_length": self.data.rain_length,
            },
        }
        if self.student_model is not None:
            d["student_model"] = self.student_model.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        known = {"model", "student_model", "train", "data"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown RunConfig sections: {sorted(unknown)}")
        model = ModelConfig.from_dict(d.get("model", {}))
        student = d.get("student_model")
        data_dict = d.get("data", {})
        known_data = {"count", "patch_size", "channels", "base_seed", "task",
                      "noise_sigma", "blur_sigma", "rain_density", "rain_angle",
                      "rain_length"}
        unknown = set(data_dict) - known_data
        if unknown:
            raise ConfigError(f"unknown CorpusSpec fields: {sorted(unknown)}")
        return cls(
            model=model,
            student_model=ModelConfig.from_dict(student) if student is not None else None,
            train=TrainConfig.from_dict(d.get("train", {})),
            data=CorpusSpec(**data_dict),
        )


def config_hash(run: RunConfig) -> str:
    """sha256 of the canonical JSON form; identifies a run up to its seed."""
    blob = json.dumps(run.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_run_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return RunConfig.from_dict(raw)


def save_run_config(run: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(run.to_dict(), sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")
