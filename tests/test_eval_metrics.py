"""Tests for HR/NDCG metrics and ranking evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    MetricReport,
    evaluate_generative_model_batched,
    hit_ratio_at_k,
    ndcg_at_k,
    rank_of_target,
    rankings_from_scores,
)


class TestMetrics:
    def test_hr_perfect(self):
        assert hit_ratio_at_k([[1, 2], [3, 4]], [1, 3], k=1) == 1.0

    def test_hr_partial(self):
        assert hit_ratio_at_k([[1, 2], [3, 4]], [2, 9], k=2) == 0.5

    def test_ndcg_rank_discounting(self):
        # Target at rank 0 -> 1.0; at rank 1 -> 1/log2(3).
        assert ndcg_at_k([[5, 6]], [5], k=2) == pytest.approx(1.0)
        assert ndcg_at_k([[6, 5]], [5], k=2) == pytest.approx(1 / np.log2(3))

    def test_ndcg_zero_when_absent(self):
        assert ndcg_at_k([[1, 2, 3]], [9], k=3) == 0.0

    def test_hr1_equals_ndcg1_semantics(self):
        ranked = [[1, 2], [3, 1], [2, 1]]
        targets = [1, 1, 1]
        assert hit_ratio_at_k(ranked, targets, 1) == pytest.approx(
            ndcg_at_k(ranked, targets, 1))

    def test_rank_of_target(self):
        assert rank_of_target([7, 8, 9], 8) == 1
        assert rank_of_target([7, 8, 9], 5) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            hit_ratio_at_k([[1]], [1], k=0)
        with pytest.raises(ValueError):
            hit_ratio_at_k([[1]], [1, 2], k=1)
        with pytest.raises(ValueError):
            ndcg_at_k([], [], k=1)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=10, unique=True),
           st.integers(0, 20), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_hr_bounds_and_monotonicity(self, ranked, target, k):
        hr_k = hit_ratio_at_k([ranked], [target], k)
        hr_k10 = hit_ratio_at_k([ranked], [target], k + 10)
        assert 0.0 <= hr_k <= hr_k10 <= 1.0
        assert ndcg_at_k([ranked], [target], k) <= hr_k


class TestMetricReport:
    def test_from_rankings_keys(self):
        report = MetricReport.from_rankings([[1, 2, 3] + list(range(4, 20))],
                                            [2])
        assert set(report.values) == {"HR@1", "HR@5", "HR@10", "NDCG@5",
                                      "NDCG@10"}

    def test_row_and_header_align(self):
        report = MetricReport.from_rankings([[1]], [1], ks=(1,))
        row = report.row("model-x")
        assert row.startswith("model-x")
        assert len(row.split()) == 1 + len(MetricReport.METRIC_ORDER)

    def test_getitem(self):
        report = MetricReport({"HR@5": 0.25})
        assert report["HR@5"] == 0.25


class TestEvaluators:
    def test_rankings_from_scores(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        assert rankings_from_scores(scores, 3) == [[1, 2, 0]]

    def test_rankings_top_k_truncates(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        assert rankings_from_scores(scores, 2) == [[1, 3]]

    def test_rankings_validates_shape(self):
        with pytest.raises(ValueError):
            rankings_from_scores(np.zeros(3), 2)

    def test_evaluate_score_model(self):
        """The offline reference for served ID baselines: rank every item by score."""
        from helpers import evaluate_scores

        class Scores:
            def score_all(self, histories):
                return np.array([[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]])[: len(histories)]

        report = evaluate_scores(Scores(), [[0], [1]], [0, 2])
        assert report["HR@1"] == 1.0
        assert report["NDCG@5"] == 1.0

    def test_evaluate_generative_model(self):
        calls = []

        def recommend_batch(histories):
            calls.append(len(histories))
            return [[history[0], 99] for history in histories]

        histories = [[i] for i in range(17)]
        targets = [i if i % 3 == 0 else 99 for i in range(17)]  # 6 first-place hits
        report = evaluate_generative_model_batched(recommend_batch, histories, targets)
        assert report["HR@1"] == pytest.approx(6 / 17)
        assert report["HR@5"] == pytest.approx(1.0)
        assert calls == [16, 1]
