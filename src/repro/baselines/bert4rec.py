"""BERT4Rec (Sun et al. 2019): bidirectional encoder with cloze training."""

from __future__ import annotations


import numpy as np

from ..tensor import Dropout, Embedding, LayerNorm, ModuleList, Tensor
from .base import SequentialRecommender
from .layers import TransformerEncoderLayer

__all__ = ["BERT4Rec"]

# Two bidirectional self-attention layers of two heads; dropout on the input
# and inside every layer.
_NUM_LAYERS = 2
_NUM_HEADS = 2
_DROPOUT = 0.2


class BERT4Rec(SequentialRecommender):
    """Bidirectional transformer trained with masked-item prediction.

    Inference appends the mask token to the history and scores items at
    that position (the standard BERT4Rec protocol).
    """

    name = "BERT4Rec"
    training_mode = "masked"

    def __init__(
        self,
        num_items: int,
        dim: int = 64,
        max_len: int = 20,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        # Two extra embedding rows: padding and the mask token.
        super().__init__(num_items, dim, max_len, rng, extra_rows=2)
        self.mask_id = num_items + 1
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
        # Bidirectional: only padding keys are masked out.
        pad_mask = (padded == self.pad_id)[:, None, None, :]
        for layer in self.layers:
            x = layer(x, attn_mask=pad_mask)
        return self.final_norm(x)

    def user_representation(self, padded: np.ndarray, lengths: np.ndarray) -> Tensor:
        """Representation of an appended mask token after the history."""
        batch, seq_len = padded.shape
        extended = np.full((batch, min(seq_len + 1, self.max_len + 1)), self.pad_id, dtype=np.int64)
        mask_positions = np.zeros(batch, dtype=np.int64)
        for row in range(batch):
            real = padded[row][padded[row] != self.pad_id]
            real = real[-(extended.shape[1] - 1) :]
            extended[row, : len(real)] = real
            extended[row, len(real)] = self.mask_id
            mask_positions[row] = len(real)
        output = self.sequence_output(extended)
        return output[np.arange(batch), mask_positions]
