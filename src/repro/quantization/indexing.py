"""Item index construction and conflict resolution (paper Sec. III-B2).

After the RQ-VAE assigns greedy codes, items may collide (identical full
code tuples).  Two strategies are provided:

* ``"usm"`` — the paper's uniform semantic mapping: for each group of
  conflicting items, redistribute the *last-level* codewords by solving the
  optimal-transport problem (Eq. 6), avoiding codes already taken under the
  same prefix.  No extra level is added; indices stay semantic.
* ``"extra_level"`` — the TIGER / P5-CID fallback the paper argues against:
  append a supplementary level that enumerates duplicates.

The resulting :class:`ItemIndexSet` renders codes as index tokens
(``<a_12><b_7><c_3><d_9>``), registers them with a tokenizer, and builds
the decoding trie.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..text import WordTokenizer
from .codebook import pairwise_sq_distances
from .rqvae import RQVAE
from .sinkhorn import uniform_assign
from .trie import IndexTrie

__all__ = [
    "IndexConflictError",
    "ItemIndexSet",
    "build_semantic_indices",
    "code_token_strings",
    "resolve_conflicts_usm",
    "resolve_conflicts_extra_level",
    "count_conflicts",
]

_LEVEL_LETTERS = "abcdefgh"
# Spill-and-reassign rounds of USM conflict resolution.
_USM_PASSES = 10


class IndexConflictError(RuntimeError):
    """Raised when conflicts cannot be resolved under the chosen strategy."""


def code_token_strings(codes) -> tuple[str, ...]:
    """Index-token strings for one code tuple, e.g. ``('<a_5>', '<b_2>', ...)``.

    The rendering :class:`ItemIndexSet` uses per item, exposed for codes
    that are not (yet) in an index set — the live catalog renders a newly
    ingested item's codes with it before the token ids enter the trie.
    """
    return tuple(f"<{_LEVEL_LETTERS[level]}_{int(code)}>" for level, code in enumerate(codes))


@dataclass
class ItemIndexSet:
    """Per-item discrete indices plus the token-space description.

    Attributes
    ----------
    codes:
        ``(num_items, num_levels)`` integer codewords.
    level_sizes:
        Token-space size per level (number of distinct possible codes, not
        merely the used ones) — determines how many tokens get registered.
    """

    codes: np.ndarray
    level_sizes: list[int]

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.int64)
        if self.codes.ndim != 2:
            raise ValueError("codes must be (num_items, num_levels)")
        if self.codes.shape[1] != len(self.level_sizes):
            raise ValueError("level_sizes must match number of levels")
        for level, size in enumerate(self.level_sizes):
            level_max = self.codes[:, level].max(initial=-1)
            if level_max >= size:
                raise ValueError(
                    f"code {level_max} out of range for level {level} "
                    f"(size {size})"
                )

    # ------------------------------------------------------------------
    @property
    def num_items(self) -> int:
        return self.codes.shape[0]

    @property
    def num_levels(self) -> int:
        return self.codes.shape[1]

    def is_unique(self) -> bool:
        """True when no two items share a full index tuple."""
        return len({tuple(row) for row in self.codes}) == self.num_items

    # ------------------------------------------------------------------
    def token_strings(self, item_id: int) -> tuple[str, ...]:
        """Index tokens for one item, e.g. ``('<a_5>', '<b_2>', ...)``."""
        return code_token_strings(self.codes[item_id])

    def index_text(self, item_id: int) -> str:
        """The concatenated token string used inside instructions."""
        return "".join(self.token_strings(item_id))

    def all_token_strings(self) -> list[str]:
        """Every possible index token, level-major (for vocab registration)."""
        tokens = []
        for level, size in enumerate(self.level_sizes):
            letter = _LEVEL_LETTERS[level]
            tokens.extend(f"<{letter}_{code}>" for code in range(size))
        return tokens

    # ------------------------------------------------------------------
    def register(self, tokenizer: WordTokenizer) -> None:
        """Append all index tokens to the tokenizer's vocabulary."""
        tokenizer.register_index_tokens(self.all_token_strings())

    def token_ids(self, item_id: int, tokenizer: WordTokenizer) -> tuple[int, ...]:
        return tuple(tokenizer.vocab.token_to_id(t) for t in self.token_strings(item_id))

    def build_trie(self, tokenizer: WordTokenizer) -> IndexTrie:
        """Decoding trie over token ids (requires unique indices)."""
        sequences = {
            item: self.token_ids(item, tokenizer)
            for item in range(self.num_items)
        }
        return IndexTrie(sequences)


# ----------------------------------------------------------------------
def count_conflicts(codes: np.ndarray) -> int:
    """Number of items involved in a full-tuple collision."""
    groups: dict[tuple, int] = defaultdict(int)
    for row in codes:
        groups[tuple(row)] += 1
    return sum(count for count in groups.values() if count > 1)


def resolve_conflicts_usm(
    codes: np.ndarray,
    level_residuals: np.ndarray,
    codebooks: list[np.ndarray],
) -> np.ndarray:
    """Uniform-semantic-mapping conflict resolution (Eq. 6, stage two).

    For every prefix bucket (identical codes at levels ``0..H-2``) whose
    items collide at the last level, the colliding items' last codewords
    are reassigned by capacity-1 optimal transport over the codes not
    already taken in that bucket (non-conflicting items are untouched).

    When a bucket holds more items than the last codebook has codes —
    which only happens with very small codebooks, where deep RQ levels
    tend to collapse — the farthest overflow items are *spilled*: their
    level ``H-1`` code is moved to the next-nearest center and resolution
    re-runs.  This keeps the reassignment semantic (nearby codes first)
    while guaranteeing uniqueness, for at most ``_USM_PASSES`` rounds.
    """
    codes = codes.copy()
    num_levels = codes.shape[1]
    last_codebook = codebooks[-1]
    num_codes = last_codebook.shape[0]
    last_residuals = level_residuals[:, -1, :].copy()
    spill_rank = defaultdict(int)  # item -> how many spills so far

    for _ in range(_USM_PASSES):
        buckets: dict[tuple, list[int]] = defaultdict(list)
        for item, row in enumerate(codes):
            buckets[tuple(row[:-1])].append(item)
        any_conflict = False
        for prefix, items in buckets.items():
            last = codes[items, -1]
            values, counts = np.unique(last, return_counts=True)
            if (counts <= 1).all():
                continue
            any_conflict = True
            conflicted_codes = set(values[counts > 1].tolist())
            keep = [i for i in items if codes[i, -1] not in conflicted_codes]
            movers = [i for i in items if codes[i, -1] in conflicted_codes]
            taken = {int(codes[i, -1]) for i in keep}
            free_codes = np.array(
                [c for c in range(num_codes) if c not in taken],
                dtype=np.int64,
            )
            overflow: list[int] = []
            if len(movers) > len(free_codes):
                if num_levels < 2:
                    raise IndexConflictError(
                        f"{len(movers)} items conflict with only "
                        f"{len(free_codes)} free codes and no higher level "
                        "to spill to; increase codebook_size"
                    )
                # Keep the movers closest to their current code; spill the rest.
                current = last_codebook[codes[movers, -1]]
                distance = ((last_residuals[movers] - current) ** 2).sum(axis=1)
                order = np.argsort(distance)
                fitted = [movers[i] for i in order[:len(free_codes)]]
                overflow = [movers[i] for i in order[len(free_codes):]]
                movers = fitted
            if movers:
                cost = pairwise_sq_distances(last_residuals[movers], last_codebook[free_codes])
                assignment = uniform_assign(cost, capacity=1)
                for mover, col in zip(movers, assignment):
                    codes[mover, -1] = free_codes[col]
            for item in overflow:
                _spill_item(item, codes, level_residuals, last_residuals,
                            codebooks, spill_rank)
        if not any_conflict:
            return codes

    remaining = count_conflicts(codes)
    if remaining:
        raise IndexConflictError(
            f"{remaining} items still conflict after {max_passes} passes; "
            "increase codebook_size or num_levels"
        )
    return codes


def _spill_item(item: int, codes: np.ndarray, level_residuals: np.ndarray,
                last_residuals: np.ndarray, codebooks: list[np.ndarray],
                spill_rank: dict[int, int]) -> None:
    """Move ``item`` to its next-nearest level ``H-1`` code.

    Each successive spill of the same item picks a progressively farther
    center (rank 2nd, 3rd, ...), which guarantees termination.
    """
    parent_level = codes.shape[1] - 2
    parent_book = codebooks[parent_level]
    parent_residual = level_residuals[item, parent_level][None, :]
    distances = pairwise_sq_distances(parent_residual, parent_book)[0]
    ranked = np.argsort(distances)
    spill_rank[item] += 1
    rank = min(spill_rank[item], len(ranked) - 1)
    new_parent = int(ranked[rank])
    codes[item, parent_level] = new_parent
    # Recompute the residual entering the last level and its greedy code.
    new_last_residual = level_residuals[item, parent_level] - parent_book[new_parent]
    last_residuals[item] = new_last_residual
    last_book = codebooks[-1]
    codes[item, -1] = int(
        pairwise_sq_distances(new_last_residual[None, :], last_book)[0].argmin()
    )


def resolve_conflicts_extra_level(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Append a disambiguation level enumerating duplicates (TIGER-style).

    Returns the ``(N, H+1)`` codes plus the extra level's token-space size.
    """
    groups: dict[tuple, int] = defaultdict(int)
    extra = np.zeros(codes.shape[0], dtype=np.int64)
    for item, row in enumerate(codes):
        key = tuple(row)
        extra[item] = groups[key]
        groups[key] += 1
    extra_size = int(extra.max()) + 1
    return np.concatenate([codes, extra[:, None]], axis=1), extra_size


def build_semantic_indices(rqvae: RQVAE, embeddings: np.ndarray, strategy: str) -> ItemIndexSet:
    """Quantise ``embeddings`` and resolve conflicts with ``strategy``."""
    result = rqvae.quantize(embeddings)
    codebook_size = rqvae.config.codebook_size
    num_levels = rqvae.config.num_levels
    if strategy == "usm":
        codebooks = [book.vectors.data for book in rqvae.codebooks]
        codes = resolve_conflicts_usm(result.codes, result.level_residuals, codebooks)
        return ItemIndexSet(codes, [codebook_size] * num_levels)
    if strategy == "extra_level":
        codes, extra_size = resolve_conflicts_extra_level(result.codes)
        return ItemIndexSet(codes, [codebook_size] * num_levels + [extra_size])
    raise ValueError(f"unknown strategy {strategy!r}")
