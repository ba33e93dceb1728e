"""Soft knowledge distillation for small image-restoration networks."""

from .attention import (
    FeatureMap,
    Projector,
    channel_cross_attention,
    cross_net_features,
    make_projector,
    project,
    spatial_cross_attention,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, TrainConfig, config_hash, load_run_config, save_run_config
from .data import CorpusSpec, Sample, degrade, denormalize, make_clean_corpus, make_samples, \
    normalize
from .errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    DegenerateFeatureError,
    NonFiniteError,
    RangeError,
    ShapeError,
    SkdError,
)
from .losses import (
    LossWeights,
    PhiExtractor,
    contrastive_loss_from_features,
    gaussian_kernel_distance,
    gk_feature_loss,
    reconstruction_loss,
    total_loss,
)
from .metrics import psnr, ssim
from .models import (
    ModelConfig,
    RestorationNet,
    build_net,
    compress_config,
    count_params_flops,
    reduction_percentages,
)
from .tensor import Tensor, count_macs, gradcheck
from .trainer import adam_step, cosine_lr, distill, evaluate, train_teacher

__all__ = [
    "Tensor", "count_macs", "gradcheck",
    "FeatureMap", "Projector", "project", "make_projector",
    "channel_cross_attention", "spatial_cross_attention", "cross_net_features",
    "LossWeights", "PhiExtractor", "gaussian_kernel_distance", "gk_feature_loss",
    "contrastive_loss_from_features", "reconstruction_loss", "total_loss",
    "ModelConfig", "RestorationNet", "build_net", "compress_config",
    "count_params_flops", "reduction_percentages",
    "CorpusSpec", "Sample", "make_clean_corpus", "make_samples", "degrade",
    "normalize", "denormalize",
    "psnr", "ssim",
    "Checkpoint", "save_checkpoint", "load_checkpoint",
    "RunConfig", "TrainConfig", "config_hash", "load_run_config", "save_run_config",
    "adam_step", "cosine_lr", "train_teacher", "distill", "evaluate",
    "SkdError", "ShapeError", "ConfigError", "RangeError", "NonFiniteError",
    "DegenerateFeatureError", "CheckpointError", "CheckpointFormatError",
    "CheckpointVersionError", "CheckpointTruncatedError",
]
