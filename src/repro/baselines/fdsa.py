"""FDSA (Zhang et al. 2019): feature-level deeper self-attention.

Two parallel causal self-attention streams — one over item ids, one over
item *features* — whose final states are concatenated and projected.  The
paper's textual features are represented here by the catalog's category
and subcategory ids (the synthetic datasets' ground-truth content signal).
"""

from __future__ import annotations

import numpy as np

from ..tensor import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ModuleList,
    Tensor,
    causal_mask,
    concat,
)
from .base import SequentialRecommender
from .layers import TransformerEncoderLayer

__all__ = ["FDSA"]

# One self-attention layer of two heads per stream; dropout on both stream
# inputs and inside every layer.
_NUM_LAYERS = 1
_NUM_HEADS = 2
_DROPOUT = 0.2


class FDSA(SequentialRecommender):
    """Item-stream + feature-stream self-attention with late fusion."""

    name = "FDSA"
    training_mode = "causal"

    def __init__(
        self,
        num_items: int,
        item_features: np.ndarray,
        num_features: int,
        dim: int = 64,
        max_len: int = 20,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        super().__init__(num_items, dim, max_len, rng)
        features = np.asarray(item_features, dtype=np.int64)
        if features.shape != (num_items,):
            raise ValueError("item_features must be one id per item")
        # Feature id num_features acts as the padding feature.
        self._features = np.concatenate([features, [num_features]])
        self.feature_embeddings = Embedding(num_features + 1, dim, rng=rng)
        self.position_embeddings = Embedding(max_len + 1, dim, rng=rng)
        self.item_layers = ModuleList(
            [
                TransformerEncoderLayer(dim, _NUM_HEADS, dim * 2, _DROPOUT, rng)
                for _ in range(_NUM_LAYERS)
            ]
        )
        self.feature_layers = ModuleList(
            [
                TransformerEncoderLayer(dim, _NUM_HEADS, dim * 2, _DROPOUT, rng)
                for _ in range(_NUM_LAYERS)
            ]
        )
        self.fusion = Linear(dim * 2, dim, rng=rng)
        self.final_norm = LayerNorm(dim)
        self.dropout = Dropout(_DROPOUT, rng=rng)

    def sequence_output(self, padded: np.ndarray) -> Tensor:
        seq_len = padded.shape[1]
        positions = np.arange(seq_len)
        mask = causal_mask(seq_len, seq_len)
        pos = self.position_embeddings(positions)

        item_stream = self.dropout(self.item_embeddings(padded) + pos)
        for layer in self.item_layers:
            item_stream = layer(item_stream, attn_mask=mask)

        feature_ids = self._features[padded]
        feat_stream = self.dropout(self.feature_embeddings(feature_ids) + pos)
        for layer in self.feature_layers:
            feat_stream = layer(feat_stream, attn_mask=mask)

        fused = self.fusion(concat([item_stream, feat_stream], axis=-1))
        return self.final_norm(fused)
