"""Popularity-stratified evaluation (head vs tail items).

The paper motivates semantic indices partly by cold-start/OOV robustness
(Sec. III-B1): vanilla item IDs starve on rarely-seen items, while shared
semantic codewords let long-tail items borrow statistics from similar
popular ones.  This module buckets test users by their *target item's*
training popularity and reports HR per bucket, which makes that mechanism
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import hit_ratio_at_k

__all__ = ["PopularityBucketReport", "item_popularity", "evaluate_by_popularity"]

_BUCKETS = ("tail", "mid-1", "head")  # target-popularity terciles, least popular first
_K = 10


def item_popularity(train_sequences: Sequence[Sequence[int]],
                    num_items: int) -> np.ndarray:
    """Training interaction count per item."""
    counts = np.zeros(num_items, dtype=np.int64)
    for seq in train_sequences:
        for item in seq:
            counts[item] += 1
    return counts


@dataclass
class PopularityBucketReport:
    """HR@k per popularity bucket (ordered tail -> head)."""

    bucket_labels: list[str]
    bucket_sizes: list[int]
    hr_at_k: list[float]
    k: int

    def rows(self) -> list[str]:
        lines = [f"{'bucket':<12} {'users':>6} {'HR@' + str(self.k):>8}"]
        for label, size, hr in zip(self.bucket_labels, self.bucket_sizes, self.hr_at_k):
            lines.append(f"{label:<12} {size:>6} {hr:>8.4f}")
        return lines


def evaluate_by_popularity(
    ranked_lists: Sequence[Sequence[int]],
    targets: Sequence[int],
    popularity: np.ndarray,
) -> PopularityBucketReport:
    """Split users by target popularity tercile and compute HR@10 per bucket."""
    if len(ranked_lists) != len(targets) or not targets:
        raise ValueError("ranked_lists and targets must align and be non-empty")
    target_pop = popularity[np.asarray(targets)]
    quantiles = np.quantile(target_pop, np.linspace(0, 1, len(_BUCKETS) + 1))
    sizes, hrs = [], []
    for b in range(len(_BUCKETS)):
        low, high = quantiles[b], quantiles[b + 1]
        if b == len(_BUCKETS) - 1:
            mask = (target_pop >= low)
        else:
            mask = (target_pop >= low) & (target_pop < high)
        indices = np.flatnonzero(mask)
        sizes.append(len(indices))
        if len(indices) == 0:
            hrs.append(float("nan"))
            continue
        hrs.append(
            hit_ratio_at_k([ranked_lists[i] for i in indices], [targets[i] for i in indices], _K)
        )
    return PopularityBucketReport(
        bucket_labels=list(_BUCKETS), bucket_sizes=sizes, hr_at_k=hrs, k=_K
    )
