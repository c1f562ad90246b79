"""The retrieval recommender: user profile → clustered-KNN candidates.

Turns the raw :class:`~repro.retrieval.knn.ClusteredKNNIndex` into a
history-in / ranked-item-ids-out recommender with the serving layer's
result contract:

* a user profile is the mean of the history items' vectors (ids outside
  the catalog are ignored — a freshly ingested item the index predates
  simply does not contribute),
* cold-start users (empty or fully-unknown histories) fall back to a
  deterministic popularity ranking computed once from the training
  split, and the same popularity order backfills short retrieval lists,
* every call returns exactly ``min(top_k, num_items)`` distinct item
  ids, deterministically.

This object is what the serving stack types as a *fallback recommender*:
anything with ``recommend(history, top_k) -> list[int]`` works, and this
implementation is numpy-only with no model forward, so it answers in
microseconds — cheap enough to run for every shed request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..eval.popularity import item_popularity
from ..serving.queue import check_top_k
from .knn import ClusteredKNNConfig, ClusteredKNNIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.lcrec import LCRec

__all__ = ["RetrievalRecommender"]


class RetrievalRecommender:
    """Clustered-KNN candidate generation with a popularity cold-start lane."""

    def __init__(
        self,
        index: ClusteredKNNIndex,
        popularity: np.ndarray | Sequence[int] | None = None,
    ):
        """``popularity[i]`` = training interaction count of item ``i``.

        Omitted counts mean the cold-start ranking degrades to plain
        item-id order (still deterministic, just uninformed).
        """
        self.index = index
        num_items = index.num_items
        if popularity is None:
            counts = np.zeros(num_items, dtype=np.int64)
        else:
            counts = np.array(popularity, dtype=np.int64, copy=True)
            if counts.shape != (num_items,):
                raise ValueError(
                    f"popularity must have shape ({num_items},), got {counts.shape}"
                )
        # Raw counts are retained (frozen) so a live catalog can extend
        # them with a new item's count when it versions the recommender.
        counts.setflags(write=False)
        self.popularity_counts = counts
        # Descending count, ties by smaller item id: the cold-start
        # ranking and the backfill order, fixed at construction.
        self.popularity_order = np.lexsort((np.arange(num_items), -counts))
        self.popularity_order.setflags(write=False)

    def with_item(self, vector: np.ndarray) -> "RetrievalRecommender":
        """A new recommender whose index contains one more item.

        The incremental lane of the live catalog: the item's vector joins
        the KNN index through :meth:`ClusteredKNNIndex.with_vector`
        (shared clustering, nearest-center assignment) and enters the
        popularity order with 0 training interactions, which ranks a
        brand-new item after every seen item in the cold-start/backfill
        order (ties by id).  ``self`` is left
        untouched for readers pinned to the old catalog version.
        """
        index = self.index.with_vector(vector)
        counts = np.concatenate(
            [self.popularity_counts, np.zeros(1, dtype=np.int64)]
        )
        return RetrievalRecommender(index, popularity=counts)

    def reclustered(self) -> "RetrievalRecommender":
        """This recommender with a fresh k-means run over its vectors.

        Incremental inserts (:meth:`with_item`) keep the original centers;
        after enough of them the clustering drifts from the data.  The
        live catalog calls this periodically so probe quality under churn
        tracks a from-scratch build.
        """
        index = ClusteredKNNIndex(self.index.vectors, self.index.config)
        return RetrievalRecommender(index, popularity=self.popularity_counts)

    @classmethod
    def from_lcrec(
        cls,
        model: "LCRec",
        config: ClusteredKNNConfig | None = None,
    ) -> "RetrievalRecommender":
        """Build the retrieval tier from a built LC-Rec model.

        Item vectors are the RQ-VAE reconstructions of the item text
        embeddings — the collaborative-semantic representation the index
        tokens quantize, so retrieval and the trie speak about the same
        geometry — or the raw text embeddings when the model was built
        without an RQ-VAE (vanilla/random indexing).  Popularity comes
        from the model's training split.
        """
        model._require_built()
        if model.item_embeddings is None:
            raise ValueError(
                "LCRec has no item embeddings; build with semantic indexing "
                "or construct RetrievalRecommender from explicit vectors"
            )
        vectors = model.item_embeddings
        if model.rqvae is not None:
            vectors = model.rqvae.reconstruct(vectors)
        index = ClusteredKNNIndex(vectors, config)
        counts = item_popularity(model.dataset.split.train_sequences, index.num_items)
        return cls(index, popularity=counts)

    @property
    def num_items(self) -> int:
        return self.index.num_items

    def profile(self, history: Sequence[int]) -> np.ndarray | None:
        """Mean vector of the in-catalog history items (None = cold start)."""
        ids = [int(item) for item in history if 0 <= int(item) < self.num_items]
        if not ids:
            return None
        return self.index.vectors[ids].mean(axis=0)

    def _popularity_prefix(self, top_k: int) -> list[int]:
        return [int(item) for item in self.popularity_order[:top_k]]

    def recommend(self, history: Sequence[int], top_k: int = 10) -> list[int]:
        """``min(top_k, num_items)`` distinct item ids, best first."""
        check_top_k(top_k)
        query = self.profile(history)
        if query is None:
            return self._popularity_prefix(top_k)
        ranked = [int(item) for item in self.index.search(query, top_k)]
        if len(ranked) < min(top_k, self.num_items):
            seen = set(ranked)
            for item in self.popularity_order:
                if int(item) not in seen:
                    ranked.append(int(item))
                    if len(ranked) == top_k:
                        break
        return ranked

    def recommend_many(
        self, histories: Sequence[Sequence[int]], top_k: int = 10
    ) -> list[list[int]]:
        return [self.recommend(history, top_k) for history in histories]
