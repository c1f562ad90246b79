"""Clustered-KNN retrieval over stacked item vectors.

The microsecond lane of the hybrid serving stack: items are clustered
once with k-means (reusing the RQ-VAE's Lloyd's-iteration kernel from
``repro.quantization.codebook``), and a query probes only the top-``C``
clusters by centroid similarity before exact dot-product ranking within
the probed members — pure numpy, no model forward anywhere.

Determinism is part of the contract, not an accident: cluster assignment
is seeded, probe order breaks centroid-score ties by cluster index, and
the final ranking breaks item-score ties by the smaller item id.  With
``n_clusters=1`` (or probing every cluster) the result is *identical* to
brute-force KNN over the whole catalog — the parity oracle the test
battery pins (``tests/test_retrieval.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..quantization.codebook import kmeans, nearest_code
from ..serving.queue import check_top_k

__all__ = ["ClusteredKNNConfig", "ClusteredKNNIndex", "brute_force_topk", "rank_by_score"]


def rank_by_score(item_ids: np.ndarray, scores: np.ndarray, top_k: int) -> np.ndarray:
    """``item_ids`` ranked by descending score, ties by smaller id.

    One lexsort, shared by the clustered and brute-force paths so a
    tie-breaking change can never make them disagree.
    """
    order = np.lexsort((item_ids, -scores))
    return item_ids[order[: min(top_k, item_ids.shape[0])]]


def brute_force_topk(vectors: np.ndarray, query: np.ndarray, top_k: int) -> np.ndarray:
    """Exact dot-product top-``k`` over every row of ``vectors``.

    The parity oracle for :meth:`ClusteredKNNIndex.search`.  Scores each
    row with the same vector kernel the clustered path uses (a gathered
    matrix–vector product), so equal inputs produce bitwise-equal scores.
    """
    scores = vectors @ query
    return rank_by_score(np.arange(vectors.shape[0], dtype=np.int64), scores, top_k)


@dataclass(frozen=True)
class ClusteredKNNConfig:
    """Clustering and probing knobs of a :class:`ClusteredKNNIndex`.

    ``n_clusters`` is clamped to the catalog size at build time.
    ``n_probe`` clusters are scored per query (widened automatically when
    they hold fewer than ``top_k`` members, so a full catalog always
    yields a full ``top_k``).  ``seed`` fixes the k-means initialisation:
    two indices built from equal vectors and equal configs are identical.
    """

    n_clusters: int = 16
    n_probe: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if self.n_probe < 1:
            raise ValueError("n_probe must be positive")


class ClusteredKNNIndex:
    """K-means-clustered exact-within-probe KNN over item vectors.

    Built once from an ``(N, D)`` float matrix (row ``i`` = item ``i``);
    :meth:`search` then costs one ``(k, D)`` centroid scoring plus one
    gathered dot product over the probed members instead of the full
    catalog.  The index is immutable after construction (the vector
    matrix is copied and frozen), so concurrent readers need no locking —
    exactly what the serving fast lane requires.
    """

    def __init__(self, vectors: np.ndarray, config: ClusteredKNNConfig | None = None):
        vectors = np.array(vectors, dtype=np.float32, copy=True)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D (items, dim), got shape {vectors.shape}")
        if vectors.shape[0] == 0:
            raise ValueError("cannot index an empty catalog")
        vectors.setflags(write=False)
        self.vectors = vectors
        self.config = config or ClusteredKNNConfig()
        k = min(self.config.n_clusters, vectors.shape[0])
        rng = np.random.default_rng(self.config.seed)
        self.centers = kmeans(vectors, k, rng, num_iters=10)
        self.centers.setflags(write=False)
        assignments = nearest_code(vectors, self.centers)
        self.members: list[np.ndarray] = []
        for cluster in range(k):
            member_ids = np.flatnonzero(assignments == cluster).astype(np.int64)
            member_ids.setflags(write=False)
            self.members.append(member_ids)
        # Inserts absorbed since the last full k-means run (see with_vector).
        self.pending_inserts = 0

    def with_vector(self, vector: np.ndarray) -> "ClusteredKNNIndex":
        """A new index containing one more item, sharing this clustering.

        The incremental insert of the live-catalog path: the new row (item
        id ``num_items``) is assigned to its nearest *existing* center —
        no k-means re-run — so the cost is one ``(k, D)`` scoring plus one
        member-array extension, and every other cluster's member array is
        shared by identity.  ``self`` is untouched (frozen arrays, new
        wrapper), so concurrent readers of the old index are safe.

        ``pending_inserts`` counts inserts absorbed since the last full
        clustering; the caller (``LiveCatalog``) re-clusters periodically
        — a fresh :class:`ClusteredKNNIndex` over ``vectors`` — so probe
        quality cannot degrade without bound under sustained churn.
        """
        vector = np.asarray(vector, dtype=np.float32)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector must have shape ({self.dim},), got {vector.shape}")
        vectors = np.concatenate([self.vectors, vector[None, :]], axis=0)
        vectors.setflags(write=False)
        clone = ClusteredKNNIndex.__new__(ClusteredKNNIndex)
        clone.vectors = vectors
        clone.config = self.config
        clone.centers = self.centers
        cluster = int(nearest_code(vector[None, :], self.centers)[0])
        members = list(self.members)
        extended = np.concatenate(
            [members[cluster], np.array([self.num_items], dtype=np.int64)]
        )
        extended.setflags(write=False)
        members[cluster] = extended
        clone.members = members
        clone.pending_inserts = self.pending_inserts + 1
        return clone

    @property
    def num_items(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def num_clusters(self) -> int:
        return int(self.centers.shape[0])

    def probe_order(self, query: np.ndarray) -> np.ndarray:
        """Cluster indices by descending centroid score, ties by index."""
        scores = self.centers @ query.astype(np.float32, copy=False)
        return np.lexsort((np.arange(self.num_clusters), -scores))

    def _probed_members(self, query: np.ndarray, top_k: int, n_probe: int) -> np.ndarray:
        """Member ids of the probed clusters, widened until ``top_k`` fit.

        Takes the first ``n_probe`` clusters of the probe order, then — if
        they hold fewer than ``top_k`` members — keeps appending clusters
        in probe order.  Deterministic, and degrades to the whole catalog
        only when the query genuinely needs it.
        """
        order = self.probe_order(query)
        parts: list[np.ndarray] = []
        total = 0
        for position, cluster in enumerate(order):
            if position >= n_probe and total >= top_k:
                break
            members = self.members[int(cluster)]
            if members.size:
                parts.append(members)
                total += members.size
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def search(self, query: np.ndarray, top_k: int) -> np.ndarray:
        """The ``top_k`` item ids nearest ``query`` by dot product.

        Probes the config's ``n_probe`` clusters (a config with
        ``n_probe = n_clusters`` searches exactly).  Returns fewer than
        ``top_k`` ids only when the whole catalog is smaller.
        """
        check_top_k(top_k)
        query = np.asarray(query, dtype=np.float32)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},), got {query.shape}")
        n_probe = min(self.config.n_probe, self.num_clusters)
        members = self._probed_members(query, top_k, n_probe)
        scores = self.vectors[members] @ query
        return rank_by_score(members, scores, top_k)
