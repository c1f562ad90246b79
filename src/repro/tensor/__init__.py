"""Numpy autodiff engine: tensors, layers, optimisers and schedules."""

from . import functional
from .attention import BeamKVCache, KVCache, MultiHeadAttention, RotaryEmbedding, causal_mask
from .init import kaiming_uniform, normal_, xavier_uniform
from .nn import (
    MLP,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    RMSNorm,
)
from .optim import Adam, AdamW, clip_grad_norm, train_epochs
from .recurrent import GRU, GRUCell
from .sched import CosineWarmup
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
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "train_epochs",
    "CosineWarmup",
    "kaiming_uniform",
    "xavier_uniform",
    "normal_",
]
