"""FMLP-Rec (Zhou et al. 2022): all-MLP model with learnable filters.

The original applies a learnable complex filter in the frequency domain:
``y = IFFT(FFT(x) * W)``.  By the convolution theorem this equals a
*circular convolution* with the time-domain kernel ``w = IFFT(W)``; we
parameterise the kernel directly in the time domain, which is numerically
identical and keeps gradients inside the autodiff engine.  The filter
mixes all positions (it is not causal), so the model trains pointwise on
(history window -> next item) pairs, which cannot leak the target.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Dropout, LayerNorm, Module, ModuleList, Parameter, Tensor
from .base import SequentialRecommender
from .layers import PointwiseFeedForward

__all__ = ["FMLP", "FilterLayer"]

# Two filter blocks; dropout on the input and inside every block.
_NUM_LAYERS = 2
_DROPOUT = 0.2


class FilterLayer(Module):
    """Per-dimension learnable circular convolution over the time axis."""

    def __init__(self, seq_len: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.seq_len = seq_len
        # Near-identity init: the kernel starts as a delta at lag 0.
        kernel = rng.standard_normal((seq_len, dim)).astype(np.float32) * 0.02
        kernel[0] += 1.0
        self.kernel = Parameter(kernel)
        # circulant_index[t, s] = (t - s) mod L
        t = np.arange(seq_len)
        self._circulant_index = (t[:, None] - t[None, :]) % seq_len

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.seq_len:
            raise ValueError(f"FilterLayer built for length {self.seq_len}, got {x.shape[1]}")
        # (T, S, d) circulant kernel; y[b,t,d] = sum_s x[b,s,d] k[(t-s)%L,d]
        circulant = self.kernel[self._circulant_index]
        mixed = x.reshape(x.shape[0], 1, self.seq_len, x.shape[2]) * circulant
        return mixed.sum(axis=2)


class FMLPBlock(Module):
    """Filter layer + FFN, each with residual connection and LayerNorm."""

    def __init__(self, seq_len: int, dim: int, dropout: float, rng: np.random.Generator):
        super().__init__()
        self.filter_layer = FilterLayer(seq_len, dim, rng)
        self.filter_norm = LayerNorm(dim)
        self.ffn = PointwiseFeedForward(dim, dim * 2, dropout, rng)
        self.ffn_norm = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.filter_norm(x + self.dropout(self.filter_layer(x)))
        x = self.ffn_norm(x + self.dropout(self.ffn(x)))
        return x


class FMLP(SequentialRecommender):
    """Stack of filter blocks; mean over real positions as user state."""

    name = "FMLP-Rec"
    training_mode = "pointwise"

    def __init__(
        self,
        num_items: int,
        dim: int = 64,
        max_len: int = 20,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        super().__init__(num_items, dim, max_len, rng)
        self.blocks = ModuleList(
            [FMLPBlock(max_len, dim, _DROPOUT, rng) for _ in range(_NUM_LAYERS)]
        )
        self.input_norm = LayerNorm(dim)
        self.dropout = Dropout(_DROPOUT, rng=rng)

    def user_representation(self, padded: np.ndarray, lengths: np.ndarray) -> Tensor:
        x = self.dropout(self.input_norm(self.item_embeddings(padded)))
        real = (padded != self.pad_id).astype(np.float32)[:, :, None]
        x = x * real
        for block in self.blocks:
            x = block(x) * real
        counts = np.maximum(real.sum(axis=1), 1.0)
        return x.sum(axis=1) / counts
