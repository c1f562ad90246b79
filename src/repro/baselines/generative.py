"""Shared machinery for the generative baselines (TIGER, P5-CID).

Both baselines speak a *private* token vocabulary containing only special
tokens and item-index tokens (no natural language — that is exactly the
paper's point about them: "only establishes collaborative semantics
between item IDs and is independent of language semantics").

Also implements P5-CID's collaborative indexing: recursive spectral
clustering of the item co-occurrence graph (Hua et al. 2023), yielding
tree-structured collaborative IDs.
"""

from __future__ import annotations

import numpy as np

from ..data import SequentialDataset
from ..quantization.indexing import ItemIndexSet
from ..quantization.trie import IndexTrie

__all__ = [
    "IndexTokenSpace",
    "build_cooccurrence_matrix",
    "collaborative_index_set",
    "spectral_cluster",
]

PAD_ID = 0
BOS_ID = 1
SEP_ID = 2
NUM_SPECIALS = 3


class IndexTokenSpace:
    """Maps an :class:`ItemIndexSet` into a compact token-id space.

    Token ids: ``0=pad, 1=bos, 2=sep``; level ``h`` code ``c`` maps to
    ``3 + sum(level_sizes[:h]) + c``.
    """

    def __init__(self, index_set: ItemIndexSet):
        if not index_set.is_unique():
            raise ValueError("index set must be conflict-free")
        self.index_set = index_set
        self.level_offsets = [NUM_SPECIALS]
        for size in index_set.level_sizes[:-1]:
            self.level_offsets.append(self.level_offsets[-1] + size)
        self.vocab_size = NUM_SPECIALS + sum(index_set.level_sizes)

    def item_tokens(self, item_id: int) -> tuple[int, ...]:
        codes = self.index_set.codes[item_id]
        return tuple(
            self.level_offsets[level] + int(code) for level, code in enumerate(codes)
        )

    def history_ids(self, history: list[int]) -> list[int]:
        ids: list[int] = []
        for item in history:
            ids.extend(self.item_tokens(item))
        return ids

    def build_trie(self) -> IndexTrie:
        return IndexTrie(
            {item: self.item_tokens(item) for item in range(self.index_set.num_items)}
        )


# ----------------------------------------------------------------------
def build_cooccurrence_matrix(dataset: SequentialDataset) -> np.ndarray:
    """Symmetric item co-occurrence counts of pairs at most three positions apart."""
    num_items = dataset.num_items
    matrix = np.zeros((num_items, num_items), dtype=np.float64)
    for seq in dataset.split.train_sequences:
        for i, item_a in enumerate(seq):
            for j in range(i + 1, min(i + 4, len(seq))):
                item_b = seq[j]
                if item_a != item_b:
                    matrix[item_a, item_b] += 1.0
                    matrix[item_b, item_a] += 1.0
    return matrix


def spectral_cluster(
    adjacency: np.ndarray, num_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Normalised spectral clustering into at most ``num_clusters`` groups."""
    n = adjacency.shape[0]
    k = min(num_clusters, n)
    if k <= 1:
        return np.zeros(n, dtype=np.int64)
    degree = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1e-9))
    laplacian = np.eye(n) - (inv_sqrt[:, None] * adjacency * inv_sqrt[None, :])
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    embedding = eigenvectors[:, :k]
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    embedding = embedding / np.maximum(norms, 1e-9)
    from ..quantization.codebook import kmeans, nearest_code

    centers = kmeans(embedding.astype(np.float32), k, rng, num_iters=25)
    return nearest_code(embedding.astype(np.float32), centers)


def collaborative_index_set(
    dataset: SequentialDataset, num_levels: int = 3, branch: int = 8, seed: int = 0
) -> ItemIndexSet:
    """P5-CID collaborative indexing by recursive spectral clustering.

    Levels ``0..num_levels-1`` come from recursively bisecting the
    co-occurrence graph into ``branch`` clusters; a final enumeration level
    disambiguates items inside each leaf cluster (as in the original
    collaborative-indexing scheme, leaf tokens are unique per item).
    """
    rng = np.random.default_rng(seed)
    adjacency = build_cooccurrence_matrix(dataset)
    num_items = dataset.num_items
    codes = np.zeros((num_items, num_levels + 1), dtype=np.int64)

    groups: list[np.ndarray] = [np.arange(num_items)]
    for level in range(num_levels):
        next_groups: list[np.ndarray] = []
        for group in groups:
            if len(group) <= 1:
                codes[group, level] = 0
                next_groups.append(group)
                continue
            sub = adjacency[np.ix_(group, group)]
            labels = spectral_cluster(sub, branch, rng)
            codes[group, level] = labels
            for cluster in np.unique(labels):
                next_groups.append(group[labels == cluster])
        groups = next_groups

    max_leaf = 0
    for group in groups:
        for rank, item in enumerate(group):
            codes[item, num_levels] = rank
        max_leaf = max(max_leaf, len(group))

    level_sizes = [branch] * num_levels + [max(max_leaf, 1)]
    return ItemIndexSet(codes, level_sizes)
