"""repro.nn — a from-scratch NumPy deep-learning framework.

Provides the autograd tensor, layers, optimizers, and losses that the whole
ADCNN reproduction is built on (PyTorch replacement; see DESIGN.md §2).
"""

from . import blas, functional, fused, init, losses, optim, serialization
from .fused import FusedSeparable, fused_clip_quantize, try_compile
from .modules import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    ClippedReLU,
    Conv1d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    GlobalMaxPool1d,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool1d,
    MaxPool2d,
    Module,
    NearestUpsample2d,
    QuantizeSTE,
    ReLU,
    Sequential,
)
from .tensor import Parameter, Tensor, no_grad

__all__ = [
    "blas",
    "functional",
    "fused",
    "FusedSeparable",
    "fused_clip_quantize",
    "try_compile",
    "init",
    "losses",
    "optim",
    "serialization",
    "Tensor",
    "Parameter",
    "no_grad",
    "Module",
    "Sequential",
    "Identity",
    "Conv2d",
    "Conv1d",
    "BatchNorm2d",
    "BatchNorm1d",
    "ReLU",
    "LeakyReLU",
    "ClippedReLU",
    "QuantizeSTE",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "MaxPool1d",
    "GlobalMaxPool1d",
    "NearestUpsample2d",
    "Linear",
    "Flatten",
]
