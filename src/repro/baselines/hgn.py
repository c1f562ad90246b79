"""HGN (Ma et al. 2019): hierarchical gating networks.

Feature gating selects salient embedding dimensions per item, instance
gating weighs whole items in the window, and an item-item aggregation term
(the average of raw embeddings) preserves untransformed co-occurrence
signal.  Per the sequential-recommendation setting used in the paper's
comparison, the user-specific gate input is omitted.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Dropout, Linear, Parameter, Tensor
from ..tensor.init import xavier_uniform
from .base import SequentialRecommender

__all__ = ["HGN"]

# Dropout on the aggregated user representation.
_DROPOUT = 0.2


class HGN(SequentialRecommender):
    """Feature gating -> instance gating -> average aggregation."""

    name = "HGN"
    training_mode = "pointwise"

    def __init__(self, num_items: int, dim: int = 64, max_len: int = 20, seed: int = 0):
        rng = np.random.default_rng(seed)
        super().__init__(num_items, dim, max_len, rng)
        self.feature_gate = Linear(dim, dim, rng=rng)
        self.instance_gate = Parameter(xavier_uniform(rng, (dim, 1)))
        self.dropout = Dropout(_DROPOUT, rng=rng)

    def user_representation(self, padded: np.ndarray, lengths: np.ndarray) -> Tensor:
        x = self.item_embeddings(padded)  # (B, L, d)
        real = (padded != self.pad_id).astype(np.float32)[:, :, None]
        x = x * real  # zero out padding rows
        counts = np.maximum(real.sum(axis=1), 1.0)  # (B, 1)

        gated = x * self.feature_gate(x).sigmoid()  # feature-level gate
        weights = (gated @ self.instance_gate).sigmoid() * real
        instance = (gated * weights).sum(axis=1) / counts

        item_item = x.sum(axis=1) / counts  # raw aggregation term
        return self.dropout(instance + item_item)
