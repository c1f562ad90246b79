"""Tests for significance testing, popularity buckets, codebook
diagnostics and the trained-beats-random sanity floor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    evaluate_by_popularity,
    item_popularity,
    paired_bootstrap,
)
from repro.quantization import codebook_usage


class TestPairedBootstrap:
    def test_clear_winner_is_significant(self, rng):
        targets = list(range(50))
        ranked_a = [[t] + [99] * 9 for t in targets]       # always rank 1
        ranked_b = [[99] * 10 for _ in targets]            # never hits
        result = paired_bootstrap(ranked_a, ranked_b, targets, rng=rng)
        assert result.win_rate == 1.0
        assert result.significant
        assert result.mean_a == 1.0
        assert result.mean_b == 0.0

    def test_identical_models_not_significant(self, rng):
        targets = list(range(30))
        ranked = [[t, 5, 6] for t in targets]
        result = paired_bootstrap(ranked, ranked, targets, rng=rng)
        assert not result.significant
        assert result.win_rate == 0.0  # ties never count as wins

    def test_ndcg_metric(self, rng):
        targets = [0, 1]
        ranked_a = [[0, 9], [9, 1]]
        result = paired_bootstrap(ranked_a, ranked_a, targets,
                                  metric="ndcg", k=2, rng=rng)
        expected = (1.0 + 1 / np.log2(3)) / 2
        assert result.mean_a == pytest.approx(expected)

    def test_unknown_metric_rejected(self, rng):
        with pytest.raises(ValueError):
            paired_bootstrap([[0]], [[0]], [0], metric="auc", rng=rng)

    def test_misaligned_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            paired_bootstrap([[0]], [[0], [1]], [0], rng=rng)

    def test_unknown_metric_rejected_when_no_target_is_ranked(self, rng):
        with pytest.raises(ValueError, match="metric"):
            paired_bootstrap([[1, 2]], [[3, 4]], [9], metric="mrr", rng=rng)

    def test_non_positive_k_rejected(self, rng):
        with pytest.raises(ValueError, match="k must be positive"):
            paired_bootstrap([[0, 1]], [[1, 0]], [0], k=0, rng=rng)

    def test_zero_resamples_rejected(self, rng):
        with pytest.raises(ValueError, match="num_resamples"):
            paired_bootstrap([[0, 1]], [[1, 0]], [0], num_resamples=0, rng=rng)


class TestPopularityBuckets:
    def test_item_popularity_counts(self):
        pop = item_popularity([[0, 1, 1], [1]], num_items=3)
        np.testing.assert_array_equal(pop, [1, 3, 0])

    def test_bucket_report_structure(self):
        popularity = np.array([100, 50, 1, 0, 7, 9])
        targets = [0, 1, 2, 3, 4, 5]
        ranked = [[0], [9], [2], [9], [4], [5]]
        report = evaluate_by_popularity(ranked, targets, popularity)
        assert report.bucket_labels == ["tail", "mid-1", "head"]
        assert report.bucket_sizes == [2, 2, 2]  # the tail bucket is not empty
        rows = report.rows()
        assert len(rows) == 4

    def test_tail_vs_head_hr(self):
        popularity = np.array([0, 0, 50, 50, 100, 100])
        targets = [0, 1, 2, 3, 4, 5]
        ranked = [[9] * 10] * 4 + [[4], [5]]  # only head targets are in the top 10
        report = evaluate_by_popularity(ranked, targets, popularity)
        assert report.hr_at_k[0] == 0.0
        assert report.hr_at_k[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_by_popularity([], [], np.array([1]))
        with pytest.raises(ValueError):
            evaluate_by_popularity([[0]], [0, 1], np.array([1, 1]))


class TestCodebookUsage:
    def test_uniform_usage(self):
        codes = np.array([[0], [1], [2], [3]])
        usage = codebook_usage(codes, [4])[0]
        assert usage.used_codes == 4
        assert usage.dead_codes == 0
        assert usage.normalized_entropy == pytest.approx(1.0)
        assert usage.perplexity == pytest.approx(4.0)

    def test_collapsed_usage(self):
        codes = np.zeros((10, 1), dtype=np.int64)
        usage = codebook_usage(codes, [8])[0]
        assert usage.used_codes == 1
        assert usage.dead_codes == 7
        assert usage.entropy == 0.0

    def test_multi_level(self):
        codes = np.array([[0, 1], [1, 1]])
        usages = codebook_usage(codes, [2, 4])
        assert [u.level for u in usages] == [0, 1]
        assert usages[1].used_codes == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            codebook_usage(np.zeros(3), [3])
        with pytest.raises(ValueError):
            codebook_usage(np.zeros((3, 2)), [3])

    @given(st.integers(2, 30), st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_entropy_bounds(self, n, k, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, k, size=(n, 1))
        usage = codebook_usage(codes, [k])[0]
        assert 0.0 <= usage.normalized_entropy <= 1.0 + 1e-9
        assert 1.0 <= usage.perplexity <= k + 1e-9


class RandomScores:
    """Uniform random scores for every item: the floor a trained model must clear."""

    def __init__(self, num_items):
        self.num_items = num_items
        self.rng = np.random.default_rng(0)

    def score_all(self, histories):
        return self.rng.random((len(histories), self.num_items))


class TestTrivialBaselines:
    def test_trained_models_beat_random(self, tiny_dataset):
        """Sanity floor: a trained SASRec must clearly beat random."""
        from repro.baselines import BaselineTrainer, BaselineTrainerConfig, \
            SASRec
        from helpers import evaluate_scores

        random_model = RandomScores(tiny_dataset.num_items)
        sasrec = SASRec(tiny_dataset.num_items, dim=16)
        BaselineTrainer(BaselineTrainerConfig(epochs=8)).fit(sasrec,
                                                             tiny_dataset)
        histories = tiny_dataset.split.test_histories
        targets = tiny_dataset.split.test_targets
        trained = evaluate_scores(sasrec, histories, targets)
        baseline = evaluate_scores(random_model, histories, targets)
        assert trained["HR@10"] > baseline["HR@10"]
