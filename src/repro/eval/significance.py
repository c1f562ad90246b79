"""Paired bootstrap significance testing for ranking metrics.

Table III claims "LC-Rec consistently outperforms"; at reproduction scale
(hundreds of test users) metric gaps can be noise.  The paired bootstrap
resamples *users* and reports how often model A beats model B on the
resampled metric — the standard significance check for leave-one-out
recommendation evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import hit_ratio_at_k, ndcg_at_k

__all__ = ["BootstrapResult", "paired_bootstrap"]


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of a paired bootstrap comparison on one metric."""

    metric: str
    mean_a: float
    mean_b: float
    win_rate: float          # fraction of resamples where A > B
    num_resamples: int

    @property
    def significant(self) -> bool:
        """True when A wins in >= 95% of resamples."""
        return self.win_rate >= 0.95


def _per_user_scores(
    ranked_lists: Sequence[Sequence[int]], targets: Sequence[int], metric: str, k: int
) -> np.ndarray:
    """Each user's HR@k or NDCG@k, by the one formula in ``repro.eval.metrics``."""
    per_user = {"hr": hit_ratio_at_k, "ndcg": ndcg_at_k}[metric]
    return np.array(
        [per_user([list(ranked)], [target], k) for ranked, target in zip(ranked_lists, targets)]
    )


def paired_bootstrap(
    ranked_a: Sequence[Sequence[int]],
    ranked_b: Sequence[Sequence[int]],
    targets: Sequence[int],
    metric: str = "hr",
    k: int = 10,
    num_resamples: int = 2000,
    rng: np.random.Generator | None = None,
) -> BootstrapResult:
    """Compare two models' rankings over the same users.

    Parameters
    ----------
    ranked_a, ranked_b:
        Per-user ranked item lists from the two models (aligned).
    metric:
        ``"hr"`` or ``"ndcg"``.
    """
    if len(ranked_a) != len(ranked_b) or len(ranked_a) != len(targets):
        raise ValueError("inputs must align per user")
    if not targets:
        raise ValueError("no users to compare")
    if metric not in ("hr", "ndcg"):
        raise ValueError(f"unknown metric {metric!r}")
    if k < 1:
        raise ValueError("k must be positive")
    if num_resamples < 1:
        raise ValueError("num_resamples must be positive")
    rng = rng or np.random.default_rng(0)
    scores_a = _per_user_scores(ranked_a, targets, metric, k)
    scores_b = _per_user_scores(ranked_b, targets, metric, k)
    n = len(targets)
    wins = 0
    for _ in range(num_resamples):
        sample = rng.integers(0, n, size=n)
        if scores_a[sample].mean() > scores_b[sample].mean():
            wins += 1
    return BootstrapResult(
        metric=f"{metric.upper()}@{k}",
        mean_a=float(scores_a.mean()),
        mean_b=float(scores_b.mean()),
        win_rate=wins / num_resamples,
        num_resamples=num_resamples,
    )
