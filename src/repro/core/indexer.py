"""Item indexing pipelines, including the Fig. 2 ablation variants.

* ``semantic`` (+USM) — the LC-Rec indexing: RQ-VAE over LLM text
  embeddings with uniform-semantic-mapping conflict resolution.
* ``semantic`` with ``strategy='extra_level'`` — *LC-Rec w/o USM*.
* ``vanilla`` — one unique token per item (traditional item IDs).
* ``random`` — multi-level indices with randomly sampled codewords
  (structure without semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..quantization import (
    RQVAE,
    IndexConflictError,
    RQVAEConfig,
    RQVAETrainer,
    RQVAETrainerConfig,
    ItemIndexSet,
    build_semantic_indices,
    pairwise_sq_distances,
)

__all__ = [
    "SemanticIndexerConfig",
    "build_semantic_index_set",
    "build_vanilla_index_set",
    "build_random_index_set",
    "encode_new_item",
]


@dataclass
class SemanticIndexerConfig:
    """RQ-VAE settings for the semantic indexing pipeline."""

    rqvae: RQVAEConfig = field(default_factory=RQVAEConfig)
    trainer: RQVAETrainerConfig = field(default_factory=RQVAETrainerConfig)
    strategy: str = "usm"


def build_semantic_index_set(
    embeddings: np.ndarray,
    config: SemanticIndexerConfig,
) -> tuple[ItemIndexSet, RQVAE, list[dict[str, float]]]:
    """Train an RQ-VAE on ``embeddings`` and construct item indices.

    The RQ-VAE's ``input_dim`` is the embeddings' width, whatever
    ``config.rqvae`` says.  Returns the index set, the trained RQ-VAE
    (kept for analysis) and the training history.
    """
    embeddings = np.asarray(embeddings, dtype=np.float32)
    model = RQVAE(replace(config.rqvae, input_dim=embeddings.shape[1]))
    trainer = RQVAETrainer(model, config.trainer)
    history = trainer.fit(embeddings)
    index_set = build_semantic_indices(model, embeddings, strategy=config.strategy)
    return index_set, model, history


def encode_new_item(
    rqvae: RQVAE,
    embedding: np.ndarray,
    taken: set[tuple[int, ...]],
) -> np.ndarray:
    """Encode one *new* item's semantic codes through a trained RQ-VAE.

    The online counterpart of :func:`build_semantic_index_set`'s batch
    pipeline: the (already text-embedded) item is quantized greedily per
    level, and if the greedy tuple collides with an index in ``taken``
    (the catalog's existing code tuples), a deterministic single-item
    variant of the USM spill resolves it — first the free last-level codes
    nearest the item's last residual, then progressively farther parent
    centers with the last level re-quantized under each (mirroring
    ``resolve_conflicts_usm``'s spill).  Ties are broken by code index, so
    the same embedding against the same catalog always produces the same
    sequence.  Raises :class:`IndexConflictError` when every reachable
    code tuple is taken.
    """
    embedding = np.asarray(embedding, dtype=np.float32)
    if embedding.ndim != 1:
        raise ValueError(f"expected one embedding vector, got shape {embedding.shape}")
    result = rqvae.quantize(embedding[None, :])
    codes = result.codes[0].astype(np.int64)
    num_levels = codes.shape[0]
    codebooks = [book.vectors.data for book in rqvae.codebooks]

    def nearest_order(residual: np.ndarray, book: np.ndarray) -> np.ndarray:
        distances = pairwise_sq_distances(residual[None, :], book)[0]
        return np.argsort(distances, kind="stable")

    def free(candidate: np.ndarray) -> bool:
        return tuple(int(c) for c in candidate) not in taken

    if free(codes):
        return codes
    last_book = codebooks[-1]
    for code in nearest_order(result.level_residuals[0, -1], last_book):
        candidate = codes.copy()
        candidate[-1] = int(code)
        if free(candidate):
            return candidate
    if num_levels < 2:
        raise IndexConflictError(
            "every last-level code is taken and there is no higher level to "
            "spill to; increase codebook_size"
        )
    parent_level = num_levels - 2
    parent_book = codebooks[parent_level]
    parent_residual = result.level_residuals[0, parent_level]
    for parent in nearest_order(parent_residual, parent_book):
        if int(parent) == int(codes[parent_level]):
            continue  # the greedy parent's last-level codes were tried above
        new_last_residual = parent_residual - parent_book[int(parent)]
        for code in nearest_order(new_last_residual, last_book):
            candidate = codes.copy()
            candidate[parent_level] = int(parent)
            candidate[-1] = int(code)
            if free(candidate):
                return candidate
    raise IndexConflictError(
        "index space exhausted around the new item's prefix; "
        "increase codebook_size or num_levels"
    )


def build_vanilla_index_set(num_items: int) -> ItemIndexSet:
    """Traditional single-token item IDs (Fig. 2 "Vanilla ID")."""
    if num_items < 1:
        raise ValueError("num_items must be positive")
    codes = np.arange(num_items, dtype=np.int64)[:, None]
    return ItemIndexSet(codes, [num_items])


def build_random_index_set(
    num_items: int, num_levels: int, codebook_size: int, rng: np.random.Generator
) -> ItemIndexSet:
    """Random multi-level indices (Fig. 2 "Random Indices").

    Codewords are sampled uniformly; collisions are fixed by re-rolling the
    last level, so indices are unique but semantically unrelated.
    """
    if codebook_size**num_levels < num_items:
        raise ValueError("index space too small for the item count")
    codes = rng.integers(0, codebook_size, size=(num_items, num_levels)).astype(np.int64)
    seen: set[tuple[int, ...]] = set()
    for item in range(num_items):
        row = tuple(codes[item])
        attempts = 0
        while row in seen:
            codes[item, -1] = rng.integers(0, codebook_size)
            row = tuple(codes[item])
            attempts += 1
            if attempts > 10 * codebook_size:
                # Extremely crowded prefix: re-roll the whole row.
                codes[item] = rng.integers(0, codebook_size, size=num_levels)
                row = tuple(codes[item])
                attempts = 0
        seen.add(row)
    return ItemIndexSet(codes, [codebook_size] * num_levels)
