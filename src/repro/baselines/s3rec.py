"""S3-Rec (Zhou et al. 2020): self-supervised pretraining for recommenders.

Two-stage training: a pretraining phase with mutual-information-style
objectives, followed by standard next-item fine-tuning of the same
transformer.  Of the paper's four pretext objectives we implement the two
that our synthetic data supports faithfully — masked item prediction (MIP)
and item-attribute prediction (AAP, with the catalog subcategory as the
attribute) — which is documented as a simplification in DESIGN.md.
During pretraining attention is bidirectional; fine-tuning is causal.
"""

from __future__ import annotations

import numpy as np

from ..data import SequentialDataset
from ..data.batching import iterate_minibatches, pad_sequences
from ..tensor import (
    Adam,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ModuleList,
    Tensor,
    causal_mask,
    train_epochs,
)
from ..tensor import functional as F
from .base import SequentialRecommender
from .layers import TransformerEncoderLayer

__all__ = ["S3Rec"]

IGNORE = -100
# Pretraining: epochs, minibatch size, the share of real positions MIP
# masks, and AAP's weight beside MIP.
_PRETRAIN_EPOCHS = 10
_PRETRAIN_BATCH_SIZE = 64
_MASK_PROB = 0.3
_ATTRIBUTE_WEIGHT = 0.5
# The backbone: two self-attention layers of two heads.
_NUM_LAYERS = 2
_NUM_HEADS = 2


class S3Rec(SequentialRecommender):
    """SASRec-style backbone with MIP + AAP pretraining."""

    name = "S3-Rec"
    training_mode = "causal"

    def __init__(
        self,
        num_items: int,
        item_attributes: np.ndarray,
        num_attributes: int,
        dim: int = 64,
        max_len: int = 20,
        dropout: float = 0.2,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        super().__init__(num_items, dim, max_len, rng, extra_rows=2)
        self.seed = seed
        self.mask_id = num_items + 1
        attributes = np.asarray(item_attributes, dtype=np.int64)
        if attributes.shape != (num_items,):
            raise ValueError("item_attributes must be one id per item")
        self._attributes = np.concatenate([attributes, [num_attributes], [num_attributes]])
        self.num_attributes = num_attributes
        self.attribute_head = Linear(dim, num_attributes, rng=rng)
        self.position_embeddings = Embedding(max_len + 1, dim, rng=rng)
        self.layers = ModuleList(
            [
                TransformerEncoderLayer(dim, _NUM_HEADS, dim * 2, dropout, rng)
                for _ in range(_NUM_LAYERS)
            ]
        )
        self.final_norm = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=rng)
        self._bidirectional = False

    # ------------------------------------------------------------------
    def sequence_output(self, padded: np.ndarray) -> Tensor:
        seq_len = padded.shape[1]
        positions = np.arange(seq_len)
        x = self.item_embeddings(padded) + self.position_embeddings(positions)
        x = self.dropout(x)
        if self._bidirectional:
            mask = (padded == self.pad_id)[:, None, None, :]
        else:
            mask = causal_mask(seq_len, seq_len)
        for layer in self.layers:
            x = layer(x, attn_mask=mask)
        return self.final_norm(x)

    # ------------------------------------------------------------------
    def pretrain(self, dataset: SequentialDataset) -> list[float]:
        """Stage one: MIP + AAP objectives with bidirectional attention.

        Masks and batch order are drawn from the seed the model was built with.
        """
        sequences = [s for s in dataset.split.train_sequences if len(s) >= 2]
        padded = pad_sequences(sequences, pad_value=self.pad_id, max_len=self.max_len)
        is_real = padded != self.pad_id
        rng = np.random.default_rng(self.seed)

        def loss(batch_idx):
            batch = padded[batch_idx].copy()
            real = is_real[batch_idx]
            mask = (rng.random(batch.shape) < _MASK_PROB) & real
            for row in range(batch.shape[0]):
                if not mask[row].any():
                    choices = np.flatnonzero(real[row])
                    mask[row, rng.choice(choices)] = True
            item_targets = np.where(mask, batch, IGNORE)
            attr_targets = np.where(mask, self._attributes[batch], IGNORE)
            batch[mask] = self.mask_id
            hidden = self.sequence_output(batch)
            mip_loss = F.cross_entropy(self.item_logits(hidden), item_targets, ignore_index=IGNORE)
            aap_loss = F.cross_entropy(
                self.attribute_head(hidden), attr_targets, ignore_index=IGNORE
            )
            return mip_loss + aap_loss * _ATTRIBUTE_WEIGHT

        self._bidirectional = True
        try:
            return train_epochs(
                self,
                Adam(self.parameters(), lr=1e-3),
                (
                    iterate_minibatches(len(sequences), _PRETRAIN_BATCH_SIZE, rng=rng)
                    for _ in range(_PRETRAIN_EPOCHS)
                ),
                loss,
                name="S3-Rec pretrain epoch",
                clip_norm=5.0,
            )
        finally:
            self._bidirectional = False
