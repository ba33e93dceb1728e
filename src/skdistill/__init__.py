"""Soft knowledge distillation for small image-restoration networks."""

from .attention import (
    FeatureMap,
    channel_cross_attention,
    cross_net_features,
    make_projector,
    project,
    spatial_cross_attention,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, TrainConfig, config_hash, load_run_config, save_run_config
from .data import CorpusSpec, Sample, degrade, denormalize, make_samples, normalize
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
