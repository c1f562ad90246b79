"""GRU4Rec (Hidasi et al. 2016): RNN-based sequential recommendation."""

from __future__ import annotations

import numpy as np

from ..tensor import Dropout, GRU, Tensor
from .base import SequentialRecommender

__all__ = ["GRU4Rec"]

# Dropout on the embedded items before the one-layer GRU.
_DROPOUT = 0.1


class GRU4Rec(SequentialRecommender):
    """Item embeddings encoded by a GRU; tied output weights."""

    name = "GRU4Rec"
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
        self.gru = GRU(dim, dim, rng=rng)
        self.dropout = Dropout(_DROPOUT, rng=rng)

    def sequence_output(self, padded: np.ndarray) -> Tensor:
        embedded = self.dropout(self.item_embeddings(padded))
        return self.gru(embedded)
