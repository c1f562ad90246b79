"""Ranking metrics: top-K Hit Ratio and NDCG (paper Sec. IV-A3).

With leave-one-out evaluation there is exactly one relevant item per user,
so ``NDCG@K = 1 / log2(rank + 2)`` when the target appears at 0-based
``rank < K`` and 0 otherwise, and ``HR@K`` is the indicator of appearance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["hit_ratio_at_k", "ndcg_at_k", "rank_of_target", "MetricReport"]


def rank_of_target(ranked_items: list[int], target: int) -> int | None:
    """0-based rank of ``target`` in a ranked list, or None if absent."""
    try:
        return ranked_items.index(target)
    except ValueError:
        return None


def hit_ratio_at_k(ranked_lists: list[list[int]], targets: list[int], k: int) -> float:
    """Fraction of users whose target appears in the top ``k``."""
    _validate(ranked_lists, targets, k)
    hits = sum(
        1 for ranked, target in zip(ranked_lists, targets)
        if target in ranked[:k]
    )
    return hits / len(targets)


def ndcg_at_k(ranked_lists: list[list[int]], targets: list[int], k: int) -> float:
    """Mean NDCG@k with a single relevant item per user."""
    _validate(ranked_lists, targets, k)
    total = 0.0
    for ranked, target in zip(ranked_lists, targets):
        rank = rank_of_target(ranked[:k], target)
        if rank is not None:
            total += 1.0 / np.log2(rank + 2)
    return total / len(targets)


def _validate(ranked_lists, targets, k):
    if k < 1:
        raise ValueError("k must be positive")
    if len(ranked_lists) != len(targets):
        raise ValueError("ranked_lists and targets must align")
    if not targets:
        raise ValueError("no evaluation examples")


@dataclass
class MetricReport:
    """HR/NDCG values at the paper's cutoffs, with table rendering."""

    values: dict[str, float] = field(default_factory=dict)

    METRIC_ORDER = ("HR@1", "HR@5", "HR@10", "NDCG@5", "NDCG@10")

    @classmethod
    def from_rankings(
        cls, ranked_lists: list[list[int]], targets: list[int], ks: tuple[int, ...] = (1, 5, 10)
    ) -> "MetricReport":
        values: dict[str, float] = {}
        for k in ks:
            values[f"HR@{k}"] = hit_ratio_at_k(ranked_lists, targets, k)
            if k > 1:
                values[f"NDCG@{k}"] = ndcg_at_k(ranked_lists, targets, k)
        return cls(values)

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def row(self, label: str) -> str:
        """One formatted table row (4-decimal fixed point, like Table III)."""
        cells = " ".join(
            f"{self.values.get(metric, float('nan')):.4f}" for metric in self.METRIC_ORDER
        )
        return f"{label:<14} {cells}"
