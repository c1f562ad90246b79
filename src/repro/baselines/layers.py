"""Shared neural blocks for the baseline models."""

from __future__ import annotations

import numpy as np

from ..tensor import (
    Dropout,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    Tensor,
)

__all__ = ["PointwiseFeedForward", "TransformerEncoderLayer"]


class PointwiseFeedForward(Module):
    """Two-layer position-wise FFN with ReLU."""

    def __init__(self, dim: int, hidden: int, dropout: float, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(dim, hidden, rng=rng)
        self.fc2 = Linear(hidden, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.dropout(self.fc1(x).relu()))


class TransformerEncoderLayer(Module):
    """Pre-norm transformer layer with optional cross-attention.

    Used by SASRec / BERT4Rec / FDSA / S3-Rec (self-attention only) and by
    the TIGER encoder-decoder (decoder layers pass ``context``).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ffn_hidden: int,
        dropout: float,
        rng: np.random.Generator,
        with_cross_attention: bool = False,
    ):
        super().__init__()
        self.self_norm = LayerNorm(dim)
        self.self_attn = MultiHeadAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.with_cross_attention = with_cross_attention
        if with_cross_attention:
            self.cross_norm = LayerNorm(dim)
            self.cross_attn = MultiHeadAttention(dim, num_heads, dropout=dropout, rng=rng)
        self.ffn_norm = LayerNorm(dim)
        self.ffn = PointwiseFeedForward(dim, ffn_hidden, dropout, rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        attn_mask: np.ndarray | None = None,
        context: Tensor | None = None,
        context_mask: np.ndarray | None = None,
    ) -> Tensor:
        x = x + self.dropout(self.self_attn(self.self_norm(x), attn_mask=attn_mask))
        if self.with_cross_attention:
            if context is None:
                raise ValueError("cross-attention layer needs a context")
            x = x + self.dropout(
                self.cross_attn(self.cross_norm(x), context=context, attn_mask=context_mask)
            )
        x = x + self.dropout(self.ffn(self.ffn_norm(x)))
        return x
