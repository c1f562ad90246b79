"""Intention-based item retrieval evaluation (Fig. 3).

Each test user's intention text (the simulated GPT-3.5 output for the
held-out item) is used as a query; the model must retrieve the target item
from the whole catalog.  Works for any callable mapping query text to a
ranked item list (LC-Rec constrained generation, DSSM retrieval, or the
zero-shot LC-Rec variant).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..data.intentions import IntentionExample
from .metrics import MetricReport

__all__ = ["evaluate_intention_retrieval"]


def evaluate_intention_retrieval(
    retrieve: Callable[[str], list[int]],
    examples: Sequence[IntentionExample],
) -> MetricReport:
    """HR/NDCG@5 and @10 of retrieving each intention's target item."""
    if not examples:
        raise ValueError("no intention examples")
    rankings = [retrieve(example.text) for example in examples]
    targets = [example.item_id for example in examples]
    return MetricReport.from_rankings(rankings, targets, ks=(5, 10))
