"""DSSM (Huang et al. 2013): two-tower text retrieval baseline (Fig. 3).

The paper uses DSSM with BERT-encoded queries and item titles as the
baseline for intention-based item prediction.  Offline substitution: the
towers are mean-pooled word embeddings followed by an MLP (a compact
sentence encoder), trained with in-batch softmax over cosine similarities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.intentions import IntentionExample
from ..tensor import MLP, Adam, Embedding, Module, Tensor, no_grad, train_epochs
from ..tensor import functional as F
from ..text import WordTokenizer

__all__ = ["DSSM", "DSSMConfig"]


_HIDDEN = 96  # the towers' MLP width
_TEMPERATURE = 0.07  # of the in-batch softmax over cosine similarities
_BATCH_SIZE = 64
_MAX_TOKENS = 32  # words kept per text


@dataclass
class DSSMConfig:
    dim: int = 64
    epochs: int = 30


class _TextTower(Module):
    """Mean-pooled word embeddings -> MLP -> L2-normalised vector."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.embeddings = Embedding(vocab_size, dim, rng=rng)
        self.mlp = MLP([dim, _HIDDEN, dim], rng=rng)

    def forward(self, token_ids: np.ndarray, mask: np.ndarray) -> Tensor:
        vectors = self.embeddings(token_ids)
        pooled = (vectors * mask[:, :, None]).sum(axis=1)
        pooled = pooled * (1.0 / np.maximum(mask.sum(axis=1), 1.0))[:, None]
        projected = self.mlp(pooled)
        norm = (projected * projected).sum(axis=1, keepdims=True).sqrt()
        return projected / (norm + 1e-8)


class DSSM(Module):
    """Query tower + document (item title) tower with in-batch negatives."""

    name = "DSSM"

    def __init__(
        self,
        item_titles: list[str],
        config: DSSMConfig | None = None,
        extra_texts: list[str] | None = None,
    ):
        super().__init__()
        self.config = config or DSSMConfig()
        rng = np.random.default_rng(0)
        vocab = WordTokenizer.build_vocab(item_titles + (extra_texts or []))
        self.tokenizer = WordTokenizer(vocab)
        self.item_titles = list(item_titles)
        self.query_tower = _TextTower(len(vocab), self.config.dim, rng)
        self.doc_tower = _TextTower(len(vocab), self.config.dim, rng)
        self._item_vectors: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _encode_batch(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        ids = [self.tokenizer.encode(t)[:_MAX_TOKENS] for t in texts]
        width = max(max((len(i) for i in ids), default=1), 1)
        batch = np.full((len(ids), width), self.tokenizer.vocab.pad_id, dtype=np.int64)
        mask = np.zeros((len(ids), width), dtype=np.float32)
        for row, row_ids in enumerate(ids):
            batch[row, : len(row_ids)] = row_ids
            mask[row, : len(row_ids)] = 1.0
        return batch, mask

    def fit(self, examples: list[IntentionExample]) -> list[float]:
        """Train on (intention text, target item title) pairs."""
        if not examples:
            raise ValueError("no training examples")
        rng = np.random.default_rng(0)
        queries = [e.text for e in examples]
        titles = [self.item_titles[e.item_id] for e in examples]

        def batches(order):
            # In-batch negatives need at least two rows.
            chunks = (order[s : s + _BATCH_SIZE] for s in range(0, len(order), _BATCH_SIZE))
            return (chosen for chosen in chunks if len(chosen) >= 2)

        def loss(chosen):
            q_vec = self.query_tower(*self._encode_batch([queries[i] for i in chosen]))
            d_vec = self.doc_tower(*self._encode_batch([titles[i] for i in chosen]))
            logits = (q_vec @ d_vec.transpose(1, 0)) * (1.0 / _TEMPERATURE)
            return F.cross_entropy(logits, np.arange(len(chosen)))

        losses = train_epochs(
            self,
            Adam(self.parameters(), lr=1e-3),
            (batches(rng.permutation(len(examples))) for _ in range(self.config.epochs)),
            loss,
            name="DSSM epoch",
            clip_norm=5.0,
        )
        self._item_vectors = None
        return losses

    # ------------------------------------------------------------------
    def _ensure_item_vectors(self) -> np.ndarray:
        if self._item_vectors is None:
            with no_grad():
                ids, mask = self._encode_batch(self.item_titles)
                self._item_vectors = self.doc_tower(ids, mask).data
        return self._item_vectors

    def retrieve(self, query: str, top_k: int) -> list[int]:
        """Ranked item ids for a query by cosine similarity of the towers."""
        items = self._ensure_item_vectors()
        with no_grad():
            ids, mask = self._encode_batch([query])
            query_vec = self.query_tower(ids, mask).data[0]
        scores = items @ query_vec
        k = min(top_k, len(scores))
        top = np.argpartition(-scores, kth=k - 1)[:k]
        return top[np.argsort(-scores[top], kind="stable")].tolist()
