"""Shared interface for the traditional sequential-recommendation baselines.

All ID-based baselines embed items in a table with one extra padding row
(``pad_id == num_items``), produce a user representation from the padded
history, and score items with the tied item-embedding matrix.  They differ
in the sequence encoder and in the training mode:

* ``"causal"`` — next-item loss at every position (SASRec-style);
* ``"pointwise"`` — one (history -> target) pair per training window;
* ``"masked"`` — cloze-style masked-item prediction (BERT4Rec-style).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.batching import pad_sequences
from ..tensor import Embedding, Module, Tensor, no_grad

__all__ = ["SequentialRecommender"]


class SequentialRecommender(Module):
    """Base class; subclasses implement :meth:`sequence_output`."""

    name = "base"
    training_mode = "causal"

    def __init__(
        self,
        num_items: int,
        dim: int,
        max_len: int,
        rng: np.random.Generator,
        extra_rows: int = 1,
    ):
        super().__init__()
        if num_items < 1:
            raise ValueError("num_items must be positive")
        self.num_items = num_items
        self.dim = dim
        self.max_len = max_len
        # Row num_items is padding; further rows (e.g. a mask token) follow.
        self.item_embeddings = Embedding(num_items + extra_rows, dim, rng=rng)

    # ------------------------------------------------------------------
    @property
    def pad_id(self) -> int:
        return self.num_items

    def sequence_output(self, padded: np.ndarray) -> Tensor:
        """Per-position representations ``(B, T, dim)``."""
        raise NotImplementedError

    def user_representation(self, padded: np.ndarray, lengths: np.ndarray) -> Tensor:
        """Representation used for scoring: the last real position."""
        output = self.sequence_output(padded)
        rows = np.arange(padded.shape[0])
        return output[rows, lengths - 1]

    def item_logits(self, representation: Tensor) -> Tensor:
        """Tied-weight scores over the real items (padding row excluded)."""
        weights = self.item_embeddings.weight[: self.num_items]
        return representation @ weights.transpose(1, 0)

    # ------------------------------------------------------------------
    def pad_histories(
        self, histories: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Right-pad histories to ``max_len``; returns (batch, lengths)."""
        clipped = [list(h)[-self.max_len :] for h in histories]
        lengths = np.array([max(len(h), 1) for h in clipped], dtype=np.int64)
        padded = pad_sequences(clipped, pad_value=self.pad_id, max_len=self.max_len)
        return padded, lengths

    def score_all(self, histories: Sequence[Sequence[int]]) -> np.ndarray:
        """Scores over all items for each history ``(B, num_items)``."""
        self.eval()
        padded, lengths = self.pad_histories(histories)
        with no_grad():
            representation = self.user_representation(padded, lengths)
            logits = self.item_logits(representation)
        return logits.data

    def recommend(self, history: Sequence[int], top_k: int = 10) -> list[int]:
        """Ranked top-``top_k`` items for one user."""
        scores = self.score_all([history])[0]
        k = min(top_k, self.num_items)
        top = np.argpartition(-scores, kth=k - 1)[:k]
        return top[np.argsort(-scores[top], kind="stable")].tolist()
