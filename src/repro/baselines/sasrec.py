"""SASRec (Kang & McAuley 2018): unidirectional transformer recommender.

Also exposes its trained item-embedding table, which Table V uses to mine
"collaboratively similar" negatives.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Dropout, Embedding, LayerNorm, ModuleList, Tensor, causal_mask
from .base import SequentialRecommender
from .layers import TransformerEncoderLayer

__all__ = ["SASRec"]

# Two causal self-attention layers of two heads; dropout on the input and
# inside every layer.
_NUM_LAYERS = 2
_NUM_HEADS = 2
_DROPOUT = 0.2


class SASRec(SequentialRecommender):
    """Causal self-attention over the item sequence; tied output weights."""

    name = "SASRec"
    training_mode = "causal"

    def __init__(
        self,
        num_items: int,
        dim: int = 64,
        max_len: int = 20,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        super().__init__(num_items, dim, max_len, rng)
        self.position_embeddings = Embedding(max_len + 1, dim, rng=rng)
        self.layers = ModuleList(
            [
                TransformerEncoderLayer(dim, _NUM_HEADS, dim * 2, _DROPOUT, rng)
                for _ in range(_NUM_LAYERS)
            ]
        )
        self.final_norm = LayerNorm(dim)
        self.dropout = Dropout(_DROPOUT, rng=rng)

    def sequence_output(self, padded: np.ndarray) -> Tensor:
        seq_len = padded.shape[1]
        positions = np.arange(seq_len)
        x = self.item_embeddings(padded) + self.position_embeddings(positions)
        x = self.dropout(x)
        mask = causal_mask(seq_len, seq_len)
        for layer in self.layers:
            x = layer(x, attn_mask=mask)
        return self.final_norm(x)

    def item_embedding_matrix(self) -> np.ndarray:
        """Trained item embeddings (collaborative space, used by Table V)."""
        return self.item_embeddings.weight.data[: self.num_items].copy()
