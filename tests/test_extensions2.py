"""Tests for significance testing, popularity buckets, codebook
diagnostics, trivial baselines and sampling decoders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PopularityRecommender, RandomRecommender
from repro.eval import (
    evaluate_by_popularity,
    item_popularity,
    paired_bootstrap,
)
from repro.llm import LMConfig, TinyLlama, sample_generate
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


class TestPopularityBuckets:
    def test_item_popularity_counts(self):
        pop = item_popularity([[0, 1, 1], [1]], num_items=3)
        np.testing.assert_array_equal(pop, [1, 3, 0])

    def test_bucket_report_structure(self):
        popularity = np.array([100, 50, 1, 0])
        targets = [0, 1, 2, 3]
        ranked = [[0], [9], [2], [9]]
        report = evaluate_by_popularity(ranked, targets, popularity,
                                        num_buckets=2, k=1)
        assert report.bucket_labels == ["tail", "head"]
        assert report.bucket_sizes == [2, 2]  # the tail bucket is not empty
        rows = report.rows()
        assert len(rows) == 3

    def test_tail_vs_head_hr(self):
        popularity = np.array([0, 0, 100, 100])
        targets = [0, 1, 2, 3]
        ranked = [[9], [9], [2], [3]]  # only head targets hit
        report = evaluate_by_popularity(ranked, targets, popularity,
                                        num_buckets=2, k=1)
        assert report.hr_at_k[0] == 0.0
        assert report.hr_at_k[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_by_popularity([], [], np.array([1]))
        with pytest.raises(ValueError):
            evaluate_by_popularity([[0]], [0], np.array([1]), num_buckets=1)


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


class TestTrivialBaselines:
    def test_popularity_orders_by_count(self, tiny_dataset):
        model = PopularityRecommender(tiny_dataset.num_items).fit(tiny_dataset)
        ranked = model.recommend([], top_k=5)
        pop = item_popularity(tiny_dataset.split.train_sequences,
                              tiny_dataset.num_items)
        assert pop[ranked[0]] == pop.max()

    def test_popularity_score_all_shape(self, tiny_dataset):
        model = PopularityRecommender(tiny_dataset.num_items).fit(tiny_dataset)
        assert model.score_all([[0], [1]]).shape == (2, tiny_dataset.num_items)

    def test_random_recommender_valid_items(self, tiny_dataset):
        model = RandomRecommender(tiny_dataset.num_items).fit(tiny_dataset)
        ranked = model.recommend([0], top_k=10)
        assert len(set(ranked)) == 10

    def test_trained_models_beat_random(self, tiny_dataset):
        """Sanity floor: a trained SASRec must clearly beat random."""
        from repro.baselines import BaselineTrainer, BaselineTrainerConfig, \
            SASRec
        from repro.eval import evaluate_score_model

        random_model = RandomRecommender(tiny_dataset.num_items)
        sasrec = SASRec(tiny_dataset.num_items, dim=16)
        BaselineTrainer(BaselineTrainerConfig(epochs=8)).fit(sasrec,
                                                             tiny_dataset)
        histories = tiny_dataset.split.test_histories
        targets = tiny_dataset.split.test_targets
        trained = evaluate_score_model(sasrec, histories, targets)
        baseline = evaluate_score_model(random_model, histories, targets)
        assert trained["HR@10"] > baseline["HR@10"]


class TestSampling:
    def make_model(self):
        return TinyLlama(LMConfig(vocab_size=30, dim=16, num_layers=1,
                                  num_heads=2, ffn_hidden=24, seed=2))

    def test_sampled_tokens_in_vocab(self, rng):
        model = self.make_model()
        out = sample_generate(model, [1, 2], 8, eos_id=-1, rng=rng)
        assert all(0 <= t < 30 for t in out)
        assert len(out) == 8

    def test_banned_ids_respected(self, rng):
        model = self.make_model()
        banned = set(range(15))
        out = sample_generate(model, [1], 8, eos_id=-1, rng=rng,
                              banned_ids=banned)
        assert banned.isdisjoint(out)

    def test_low_temperature_matches_greedy(self, rng):
        from repro.llm import greedy_generate

        model = self.make_model()
        greedy = greedy_generate(model, [1, 2], 6, eos_id=-1)
        sampled = sample_generate(model, [1, 2], 6, eos_id=-1, rng=rng,
                                  temperature=1e-4)
        assert sampled == greedy

    def test_top_k_one_is_deterministic(self, rng):
        model = self.make_model()
        a = sample_generate(model, [1], 6, eos_id=-1,
                            rng=np.random.default_rng(0), top_k=1)
        b = sample_generate(model, [1], 6, eos_id=-1,
                            rng=np.random.default_rng(99), top_k=1)
        assert a == b

    def test_top_p_restricts_support(self):
        model = self.make_model()
        outcomes = set()
        for seed in range(20):
            out = sample_generate(model, [1], 1, eos_id=-1,
                                  rng=np.random.default_rng(seed),
                                  top_p=0.05)
            outcomes.add(out[0])
        # A tight nucleus admits very few distinct first tokens.
        assert len(outcomes) <= 3

    def test_temperature_validated(self, rng):
        with pytest.raises(ValueError):
            sample_generate(self.make_model(), [1], 3, eos_id=-1, rng=rng,
                            temperature=0.0)
