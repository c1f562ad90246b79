"""Plumbing tests for the harness's model builds (tiny scale, fast settings)."""

import pytest

from repro.bench.config import BenchScale
from repro.bench.runners import (
    TRADITIONAL_BASELINES,
    baseline_model,
    lcrec_config_for,
    train_traditional_baseline,
)
from repro.eval import evaluate_score_model

FAST = BenchScale("test", dataset_scale=0.15, epoch_scale=0.1,
                  max_eval_users=20)


def _evaluate(model, dataset):
    return evaluate_score_model(
        model, dataset.split.test_histories[:20], dataset.split.test_targets[:20]
    )


class TestFactories:
    def test_all_traditional_names_constructible(self, tiny_dataset):
        for name in TRADITIONAL_BASELINES:
            model = baseline_model(name, tiny_dataset)
            assert model.num_items == tiny_dataset.num_items

    def test_unknown_baseline_rejected(self, tiny_dataset):
        with pytest.raises(KeyError):
            baseline_model("NotAModel", tiny_dataset)

    def test_lcrec_config_respects_overrides(self, tiny_dataset):
        config = lcrec_config_for(tiny_dataset, FAST, tasks=("seq",),
                                  index_source="random",
                                  indexing_strategy="extra_level", seed=9)
        assert config.tasks.tasks == ("seq",)
        assert config.index_source == "random"
        assert config.indexer.strategy == "extra_level"
        assert config.seed == 9

    def test_lcrec_config_codebook_scales_with_items(self, tiny_dataset):
        config = lcrec_config_for(tiny_dataset, FAST)
        assert config.indexer.rqvae.codebook_size == 24


class TestRunners:
    def test_run_traditional_baseline_end_to_end(self, tiny_dataset):
        model = train_traditional_baseline("GRU4Rec", tiny_dataset, FAST)
        assert 0.0 <= _evaluate(model, tiny_dataset)["HR@10"] <= 1.0

    def test_seeded_runs_reproduce(self, tiny_dataset):
        first = train_traditional_baseline("HGN", tiny_dataset, FAST, seed=3)
        second = train_traditional_baseline("HGN", tiny_dataset, FAST, seed=3)
        assert _evaluate(first, tiny_dataset).values == _evaluate(second, tiny_dataset).values
