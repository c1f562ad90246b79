"""Numpy autodiff engine: tensors, layers, optimisers and schedules."""

from . import functional
from .attention import BeamKVCache, KVCache, MultiHeadAttention, RotaryEmbedding, causal_mask
from .init import kaiming_uniform, normal_, uniform_, xavier_uniform
from .nn import (
    MLP,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    RMSNorm,
    Sequential,
)
from .optim import Adam, AdamW, SGD, clip_grad_norm, train_epochs
from .recurrent import GRU, GRUCell
from .sched import ConstantSchedule, CosineWarmup, LinearWarmup
from .serialize import load_module, save_module
from .tensor import (
    Parameter,
    Tensor,
    as_tensor,
    concat,
    is_grad_enabled,
    no_grad,
    stack,
    where,
)
from .workspace import StepWorkspace, WeightMemo

__all__ = [
    "Tensor",
    "Parameter",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "RMSNorm",
    "Dropout",
    "MLP",
    "MultiHeadAttention",
    "RotaryEmbedding",
    "KVCache",
    "BeamKVCache",
    "StepWorkspace",
    "WeightMemo",
    "causal_mask",
    "GRU",
    "GRUCell",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "train_epochs",
    "ConstantSchedule",
    "LinearWarmup",
    "CosineWarmup",
    "save_module",
    "load_module",
    "kaiming_uniform",
    "xavier_uniform",
    "normal_",
    "uniform_",
]
