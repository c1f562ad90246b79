"""Unified training loop for the ID-based baselines.

Supports the three training modes declared by each model:

* ``causal`` — the padded training sequence is both input (``seq[:-1]``)
  and shifted target (``seq[1:]``); loss at every non-pad position.
* ``pointwise`` — every position ``t >= 1`` of a training sequence yields
  a (window, target) pair; loss on the final representation only.
* ``masked`` — random positions are replaced by the model's mask token and
  predicted (cloze objective); the model must expose ``mask_id``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import SequentialDataset
from ..data.batching import iterate_minibatches, pad_sequences
from ..tensor import Adam, train_epochs
from ..tensor import functional as F
from .base import SequentialRecommender

__all__ = ["BaselineTrainerConfig", "BaselineTrainer"]

IGNORE = -100
_MASK_PROB = 0.3  # share of real positions the masked mode hides


@dataclass
class BaselineTrainerConfig:
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0


class BaselineTrainer:
    """Fits any :class:`SequentialRecommender` on a dataset's train split."""

    def __init__(self, config: BaselineTrainerConfig | None = None):
        self.config = config or BaselineTrainerConfig()

    # ------------------------------------------------------------------
    def fit(self, model: SequentialRecommender, dataset: SequentialDataset) -> list[float]:
        """Train ``model`` by its ``training_mode``; return per-epoch mean losses."""
        losses = {"causal": self._causal, "pointwise": self._pointwise, "masked": self._masked}
        if model.training_mode not in losses:
            raise ValueError(f"unknown training mode {model.training_mode!r}")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        num_examples, loss = losses[model.training_mode](model, dataset, rng)
        return train_epochs(
            model,
            Adam(model.parameters(), lr=1e-3),
            (iterate_minibatches(num_examples, cfg.batch_size, rng=rng) for _ in range(cfg.epochs)),
            loss,
            name=f"{model.name} epoch",
            clip_norm=5.0,
        )

    # -- per-mode (number of training examples, loss of a minibatch) -----
    def _causal(self, model, dataset, rng):
        sequences = [s for s in dataset.split.train_sequences if len(s) >= 2]
        if not sequences:
            raise ValueError("no training sequences of length >= 2")
        padded = pad_sequences(sequences, pad_value=model.pad_id, max_len=model.max_len + 1)
        inputs_all, targets_all = padded[:, :-1], padded[:, 1:]
        valid = targets_all != model.pad_id
        targets_all = np.where(valid, targets_all, IGNORE)

        def loss(batch_idx):
            output = model.sequence_output(inputs_all[batch_idx])
            logits = model.item_logits(output)
            return F.cross_entropy(logits, targets_all[batch_idx], ignore_index=IGNORE)

        return len(sequences), loss

    def _pointwise(self, model, dataset, rng):
        histories, targets = [], []
        for seq in dataset.split.train_sequences:
            for t in range(1, len(seq)):
                histories.append(seq[max(0, t - model.max_len) : t])
                targets.append(seq[t])
        if not histories:
            raise ValueError("no pointwise training pairs")
        padded = pad_sequences(histories, pad_value=model.pad_id, max_len=model.max_len)
        lengths = np.array([len(h) for h in histories], dtype=np.int64)
        targets = np.array(targets, dtype=np.int64)

        def loss(batch_idx):
            representation = model.user_representation(padded[batch_idx], lengths[batch_idx])
            logits = model.item_logits(representation)
            return F.cross_entropy(logits, targets[batch_idx])

        return len(histories), loss

    def _masked(self, model, dataset, rng):
        if not hasattr(model, "mask_id"):
            raise TypeError(f"{model.name} lacks mask_id for masked training")
        sequences = [s for s in dataset.split.train_sequences if len(s) >= 2]
        padded = pad_sequences(sequences, pad_value=model.pad_id, max_len=model.max_len)
        is_real = padded != model.pad_id

        def loss(batch_idx):
            batch = padded[batch_idx].copy()
            real = is_real[batch_idx]
            mask = (rng.random(batch.shape) < _MASK_PROB) & real
            # Guarantee at least one masked position per row.
            for row in range(batch.shape[0]):
                if not mask[row].any():
                    choices = np.flatnonzero(real[row])
                    mask[row, rng.choice(choices)] = True
            targets = np.where(mask, batch, IGNORE)
            batch[mask] = model.mask_id
            output = model.sequence_output(batch)
            logits = model.item_logits(output)
            return F.cross_entropy(logits, targets, ignore_index=IGNORE)

        return len(sequences), loss
