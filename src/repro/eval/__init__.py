"""Evaluation protocols: full ranking, hard negatives, intention retrieval."""

from .popularity import (
    PopularityBucketReport,
    evaluate_by_popularity,
    item_popularity,
)
from .significance import BootstrapResult, paired_bootstrap
from .intention import evaluate_intention_retrieval
from .metrics import MetricReport, hit_ratio_at_k, ndcg_at_k, rank_of_target
from .negatives import (
    NegativeSample,
    mine_random_negatives,
    mine_similar_negatives,
    pairwise_choice_accuracy,
)
from .ranking import (
    evaluate_generative_model_batched,
    rankings_from_scores,
)

__all__ = [
    "MetricReport",
    "hit_ratio_at_k",
    "ndcg_at_k",
    "rank_of_target",
    "evaluate_generative_model_batched",
    "rankings_from_scores",
    "NegativeSample",
    "mine_similar_negatives",
    "mine_random_negatives",
    "pairwise_choice_accuracy",
    "evaluate_intention_retrieval",
    "paired_bootstrap",
    "BootstrapResult",
    "item_popularity",
    "evaluate_by_popularity",
    "PopularityBucketReport",
]
