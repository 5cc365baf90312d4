"""Multi-head state space sequence models.

A compact numpy-backed library: a reverse-mode gradient tape over dense real
tensors, diagonal state space systems with dual recurrent/convolutional
execution, multi-head gated residual blocks, full encoders, and a desk-scale
trainer for synthetic long-range tasks.
"""

from . import tensor
from .blocks import BidirMhSsmBlock, DirectionalMhSsm, MhSsmBlockConfig, MhSsmStage
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import Encoder, EncoderConfig, build_encoder, param_count, time_reduction
from .errors import ConfigError, NumericsError, ShapeError
from .nn import LayerNorm, Linear, Module
from .optim import Adam, LrSchedule, clip_grad_norm
from .seq import PackedBatch, SeqBatch
from .ssm import (DiagonalSsm, DiscreteSsm, discretize, materialize_kernel,
                  ssm_conv, ssm_scan)
from .tasks import IGNORE_INDEX, TaskSpec, generate_task
from .tensor import GradTape, Tensor
from .training import DEFAULTS, evaluate, load_config, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "BidirMhSsmBlock", "ConfigError", "DEFAULTS", "DiagonalSsm",
    "DirectionalMhSsm", "DiscreteSsm", "Encoder", "EncoderConfig", "GradTape",
    "IGNORE_INDEX", "LayerNorm", "Linear", "LrSchedule", "MhSsmBlockConfig",
    "MhSsmStage", "Module", "NumericsError", "PackedBatch", "SeqBatch", "ShapeError",
    "TaskSpec", "Tensor", "build_encoder", "clip_grad_norm",
    "discretize", "evaluate", "generate_task",
    "load_checkpoint", "load_config", "materialize_kernel", "param_count",
    "save_checkpoint", "ssm_conv", "ssm_scan", "tensor",
    "time_reduction", "train",
]
