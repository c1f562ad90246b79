"""Tests for HR/NDCG metrics and ranking evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    MetricReport,
    evaluate_generative_model_batched,
    evaluate_score_model,
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
        header = MetricReport.header()
        row = report.row("model-x")
        assert header.split()[0] == "model"
        assert row.startswith("model-x")

    def test_getitem(self):
        report = MetricReport({"HR@5": 0.25})
        assert report["HR@5"] == 0.25


class FakeScoreModel:
    def __init__(self, scores):
        self.scores = scores
        self.calls = 0

    def score_all(self, histories):
        self.calls += 1
        return self.scores[:len(histories)]


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
        scores = np.array([[0.9, 0.1, 0.0], [0.0, 0.1, 0.9]])
        model = FakeScoreModel(scores)
        report = evaluate_score_model(model, [[0], [1]], [0, 2], ks=(1,))
        assert report["HR@1"] == 1.0

    def test_evaluate_score_model_batching(self):
        scores = np.array([[1.0, 0.0]] * 5)
        model = FakeScoreModel(scores)
        evaluate_score_model(model, [[0]] * 5, [0] * 5, ks=(1,), batch_size=2)
        assert model.calls == 3

    def test_evaluate_generative_model(self):
        calls = []

        def recommend_batch(histories):
            calls.append(len(histories))
            return [[history[0], 99] for history in histories]

        report = evaluate_generative_model_batched(
            recommend_batch, [[4], [7], [5]], [4, 99, 1], ks=(1,), batch_size=2
        )
        assert report["HR@1"] == pytest.approx(1 / 3)
        assert calls == [2, 1]
