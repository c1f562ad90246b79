"""P5-CID (Geng et al. 2022; Hua et al. 2023): generative recommendation
with collaborative indexing.

P5 casts recommendation as text-to-text generation; the CID variant builds
item identifiers by hierarchical spectral clustering of the co-occurrence
graph so that related items share prefixes.  Substitution note (DESIGN.md):
the original uses a pretrained T5-220M; offline we train a small
decoder-only transformer from scratch on the same token streams, which
preserves the defining property the paper contrasts with LC-Rec — the
identifiers carry *collaborative* structure but no language semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import SequentialDataset
from ..data.batching import iterate_minibatches
from ..llm import LMConfig, TinyLlama
from ..tensor import Adam, train_epochs
from ..tensor import functional as F
from .generative import BOS_ID, PAD_ID, SEP_ID, IndexTokenSpace, collaborative_index_set

__all__ = ["P5CID", "P5CIDConfig"]

IGNORE = -100
_MAX_HISTORY = 10  # most recent items in a prompt


@dataclass
class P5CIDConfig:
    dim: int = 64
    cluster_levels: int = 3
    branch: int = 8
    epochs: int = 30
    beam_size: int = 20
    seed: int = 0


class P5CID:
    """Decoder-only generative recommender over collaborative IDs."""

    name = "P5-CID"

    def __init__(self, dataset: SequentialDataset, config: P5CIDConfig | None = None):
        self.config = config or P5CIDConfig()
        cfg = self.config
        self.index_set = collaborative_index_set(
            dataset, num_levels=cfg.cluster_levels, branch=cfg.branch, seed=cfg.seed
        )
        self.space = IndexTokenSpace(self.index_set)
        self.trie = self.space.build_trie()
        self.num_levels = self.index_set.num_levels
        max_seq = (_MAX_HISTORY + 1) * self.num_levels + 4
        self.lm = TinyLlama(
            LMConfig(
                vocab_size=self.space.vocab_size,
                dim=cfg.dim,
                num_layers=2,
                num_heads=2,
                ffn_hidden=128,
                max_seq_len=max_seq,
                seed=cfg.seed,
            )
        )

    # ------------------------------------------------------------------
    def _example(self, history: list[int], target: int | None) -> tuple[list[int], list[int]]:
        """(input ids, labels) — labels ignore everything but the target."""
        prompt = (
            [BOS_ID] + self.space.history_ids(list(history)[-_MAX_HISTORY:]) + [SEP_ID]
        )
        if target is None:
            return prompt, []
        target_ids = list(self.space.item_tokens(target))
        input_ids = prompt + target_ids
        labels = [IGNORE] * len(prompt) + target_ids
        return input_ids, labels

    def fit(self, dataset: SequentialDataset) -> list[float]:
        cfg = self.config
        inputs, labels = [], []
        for seq in dataset.split.train_sequences:
            for t in range(1, len(seq)):
                ids, labs = self._example(seq[max(0, t - _MAX_HISTORY) : t], seq[t])
                inputs.append(ids)
                labels.append(labs)
        if not inputs:
            raise ValueError("no training pairs")
        width = max(len(ids) for ids in inputs)
        input_matrix = np.full((len(inputs), width), PAD_ID, dtype=np.int64)
        label_matrix = np.full((len(inputs), width), IGNORE, dtype=np.int64)
        for row, (ids, labs) in enumerate(zip(inputs, labels)):
            input_matrix[row, : len(ids)] = ids
            label_matrix[row, : len(labs)] = labs

        rng = np.random.default_rng(cfg.seed)

        def loss(batch_idx):
            logits = self.lm(input_matrix[batch_idx, :-1])
            return F.cross_entropy(logits, label_matrix[batch_idx, 1:], ignore_index=IGNORE)

        return train_epochs(
            self.lm,
            Adam(self.lm.parameters(), lr=1e-3),
            (iterate_minibatches(len(inputs), 64, rng=rng) for _ in range(cfg.epochs)),
            loss,
            name="P5-CID epoch",
            clip_norm=5.0,
        )

    # ------------------------------------------------------------------
    def recommend(self, history: list[int], top_k: int = 10) -> list[int]:
        return self.recommend_many([list(history)], top_k=top_k)[0]

    def recommend_many(self, histories: list[list[int]], top_k: int = 10) -> list[list[int]]:
        """Trie-constrained beam search for a batch of users.

        All prompts run through the serving stack's
        :class:`repro.serving.P5CIDEngine` in one decode (one
        ``model.forward`` per trie level for the whole batch) instead of a
        per-request loop.  Rankings that come up short of ``top_k`` unique
        items — a narrow collaborative-trie level can starve the beam —
        are re-decoded once with the beam widened to the full catalog and
        backfilled deterministically, so callers always get ``top_k`` ids
        (catalog permitting).
        """
        # Lazy import: the serving package depends on repro.llm, not the
        # other way around; baselines must stay importable without it.
        from ..serving import P5CIDEngine

        return P5CIDEngine(self).recommend_many(histories, top_k=top_k)
