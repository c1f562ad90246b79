"""Full-ranking evaluation over the entire item set (paper Sec. IV-A3).

Two model families are supported:

* **score models** (all traditional baselines) expose ``score_all`` which
  returns a score per item; ranking is a sort.
* **generative models** (LC-Rec, TIGER, P5-CID) expose a batched
  ``recommend_many`` producing ranked item lists via constrained beam
  search.

No sampled negatives: ranking is always against all items, as the paper
stresses ("full ranking evaluation over the entire item set").
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

import numpy as np

from .metrics import MetricReport

__all__ = [
    "ScoreModel",
    "evaluate_score_model",
    "evaluate_generative_model_batched",
    "rankings_from_scores",
]


class ScoreModel(Protocol):
    """Anything that can score all items for a batch of histories."""

    def score_all(self, histories: Sequence[Sequence[int]]) -> np.ndarray:
        """Return ``(num_histories, num_items)`` preference scores."""


def rankings_from_scores(scores: np.ndarray, top_k: int) -> list[list[int]]:
    """Top-``top_k`` item ids per row, best first."""
    if scores.ndim != 2:
        raise ValueError("scores must be 2-D")
    k = min(top_k, scores.shape[1])
    top = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
    rows = []
    for row_scores, row_top in zip(scores, top):
        order = row_top[np.argsort(-row_scores[row_top], kind="stable")]
        rows.append(order.tolist())
    return rows


def evaluate_score_model(
    model: ScoreModel,
    histories: Sequence[Sequence[int]],
    targets: Sequence[int],
    ks: tuple[int, ...] = (1, 5, 10),
    batch_size: int = 256,
) -> MetricReport:
    """Rank all items by model score and compute HR/NDCG."""
    top_k = max(ks)
    rankings: list[list[int]] = []
    for start in range(0, len(histories), batch_size):
        batch = histories[start:start + batch_size]
        scores = model.score_all(batch)
        rankings.extend(rankings_from_scores(scores, top_k))
    return MetricReport.from_rankings(rankings, list(targets), ks=ks)


def evaluate_generative_model_batched(
    recommend_batch: Callable[[Sequence[Sequence[int]]], list[list[int]]],
    histories: Sequence[Sequence[int]],
    targets: Sequence[int],
    ks: tuple[int, ...] = (1, 5, 10),
    batch_size: int = 16,
) -> MetricReport:
    """Evaluate a *batched* beam-search recommender.

    ``recommend_batch`` maps a list of histories to one ranking per history
    (e.g. ``LCRec.recommend_many``); users are decoded ``batch_size`` at a
    time so evaluation cost amortizes across the batch exactly as serving
    traffic does.  Rankings, and so metrics, are identical to decoding one
    user at a time.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    rankings: list[list[int]] = []
    for start in range(0, len(histories), batch_size):
        chunk = [list(h) for h in histories[start:start + batch_size]]
        rankings.extend(list(r) for r in recommend_batch(chunk))
    return MetricReport.from_rankings(rankings, list(targets), ks=ks)
