"""Tests for the indexing pipelines (semantic / vanilla / random)."""

import numpy as np
import pytest

from repro.core.indexer import (
    SemanticIndexerConfig,
    build_random_index_set,
    build_semantic_index_set,
    build_vanilla_index_set,
)
from repro.quantization import RQVAEConfig, RQVAETrainerConfig


def clustered_embeddings(n=60, dim=16, clusters=5, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((clusters, dim)) * 3
    labels = rng.integers(clusters, size=n)
    return (centers[labels] + rng.standard_normal((n, dim)) * 0.2).astype(
        np.float32), labels


class TestVanilla:
    def test_one_token_per_item(self):
        index_set = build_vanilla_index_set(7)
        assert index_set.num_levels == 1
        assert index_set.level_sizes == [7]
        assert index_set.is_unique()
        assert index_set.index_text(3) == "<a_3>"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_vanilla_index_set(0)


class TestRandom:
    def test_unique_indices(self, rng):
        index_set = build_random_index_set(100, 4, 6, rng)
        assert index_set.is_unique()
        assert index_set.codes.shape == (100, 4)

    def test_space_too_small_rejected(self, rng):
        with pytest.raises(ValueError):
            build_random_index_set(100, 2, 3, rng)  # 9 < 100

    def test_handles_tight_space(self, rng):
        index_set = build_random_index_set(60, 3, 4, rng)  # 64 slots
        assert index_set.is_unique()

    def test_deterministic_given_rng(self):
        a = build_random_index_set(30, 3, 8, np.random.default_rng(7))
        b = build_random_index_set(30, 3, 8, np.random.default_rng(7))
        np.testing.assert_array_equal(a.codes, b.codes)


class TestSemantic:
    def make_config(self, strategy="usm"):
        return SemanticIndexerConfig(
            rqvae=RQVAEConfig(latent_dim=8, hidden_dims=(24,), num_levels=3, codebook_size=8),
            trainer=RQVAETrainerConfig(epochs=60, batch_size=64),
            strategy=strategy,
        )

    def test_usm_unique_and_level_count(self):
        embeddings, _ = clustered_embeddings()
        index_set, model, history = build_semantic_index_set(
            embeddings, self.make_config())
        assert index_set.is_unique()
        assert index_set.num_levels == 3
        assert len(history) == 60

    def test_extra_level_strategy_appends_level(self):
        embeddings, _ = clustered_embeddings()
        index_set, _, _ = build_semantic_index_set(
            embeddings, self.make_config("extra_level"))
        assert index_set.num_levels == 4
        assert index_set.is_unique()

    def test_semantic_similarity_in_prefixes(self):
        """Same-cluster items share the first-level code more than chance."""
        embeddings, labels = clustered_embeddings(n=80, clusters=4)
        index_set, _, _ = build_semantic_index_set(embeddings,
                                                   self.make_config())
        agree = total = 0
        for cluster in range(4):
            members = index_set.codes[labels == cluster, 0]
            values, counts = np.unique(members, return_counts=True)
            agree += counts.max()
            total += counts.sum()
        assert agree / total > 0.6

    def test_input_dim_follows_the_embeddings(self):
        embeddings, _ = clustered_embeddings(dim=12)
        config = self.make_config()
        index_set, model, _ = build_semantic_index_set(embeddings, config)
        assert model.config.input_dim == 12
        assert config.rqvae.input_dim == RQVAEConfig().input_dim  # the caller's is untouched
        assert index_set.is_unique()
