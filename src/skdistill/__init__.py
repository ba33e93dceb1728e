"""Soft knowledge distillation for small image-restoration networks."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import load_run_config
from .data import make_samples
from .models import build_net, count_params_flops
from .trainer import distill, evaluate, train_teacher
