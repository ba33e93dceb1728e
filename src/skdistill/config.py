"""Run configuration: dataclasses mirrored 1:1 by the JSON config files.

The JSON form is derived from the dataclass fields (`configdict`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .configdict import DictConfig
from .data import CorpusSpec
from .errors import ConfigError
from .losses import LossWeights
from .models import ModelConfig

# the floor of the cosine learning-rate schedule, reached at the last step
LR_MIN = 1e-6


@dataclass
class TrainConfig:
    """Optimization knobs shared by teacher training and distillation.

    Adam's beta1, beta2 and eps are the constants in `trainer`, the
    schedule ends at `LR_MIN`, and distillation covers every feature tap;
    none of these is configured here."""

    epochs: int = 10
    batch_size: int = 8
    lr_max: float = 2e-4
    seed: int = 0
    eval_interval: int = 200
    loss: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr_max >= LR_MIN:
            raise ConfigError(f"lr_max must be >= {LR_MIN}, got {self.lr_max}")
        if self.eval_interval < 1:
            raise ConfigError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunConfig(DictConfig):
    """Everything a reproduction run needs: models, training, data."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: CorpusSpec = field(default_factory=CorpusSpec)
    student_model: ModelConfig | None = None

    def __post_init__(self):
        # the nets read the corpus's images, so they must agree on channels
        for name in ("model", "student_model"):
            cfg = getattr(self, name)
            if cfg is not None and cfg.input_channels != self.data.channels:
                raise ConfigError(f"data.channels {self.data.channels} differs from "
                                  f"{name}.input_channels {cfg.input_channels}")


def config_hash(run: RunConfig) -> str:
    """sha256 of the canonical JSON form; identifies a run up to its seed."""
    blob = json.dumps(run.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def read_json_file(path: str | Path):
    """The parsed JSON value of a UTF-8 file; any decode failure, including
    nesting too deep for the parser, is a ConfigError naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    return RunConfig.from_dict(read_json_file(path))


def save_run_config(run: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(run.to_dict(), sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")
