"""Tests for the RQ-VAE model and its training dynamics."""

import numpy as np
import pytest

from repro.quantization import (
    RQVAE,
    RQVAEConfig,
    RQVAETrainer,
    RQVAETrainerConfig,
    kmeans,
    nearest_code,
    pairwise_sq_distances,
)
from repro.tensor import Tensor


def clustered_embeddings(n=60, dim=8, clusters=4, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((clusters, dim)) * 3
    labels = rng.integers(clusters, size=n)
    data = centers[labels] + rng.standard_normal((n, dim)) * 0.3
    return data.astype(np.float32), labels


class TestCodebookUtils:
    def test_pairwise_distances_match_naive(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        c = rng.standard_normal((4, 3))
        fast = pairwise_sq_distances(x, c)
        naive = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(fast, naive, atol=1e-5)

    def test_nearest_code(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        x = np.array([[1.0, 1.0], [9.0, 9.0]])
        np.testing.assert_array_equal(nearest_code(x, centers), [0, 1])

    def test_kmeans_recovers_clusters(self):
        data, labels = clustered_embeddings()
        centers = kmeans(data, 4, np.random.default_rng(2))
        assigned = nearest_code(data, centers)
        # Same-cluster points should share kmeans labels (up to permutation).
        for cluster in range(4):
            members = assigned[labels == cluster]
            values, counts = np.unique(members, return_counts=True)
            assert counts.max() / counts.sum() > 0.9

    def test_kmeans_handles_fewer_points_than_k(self):
        data = np.random.default_rng(3).standard_normal((3, 4)).astype(np.float32)
        centers = kmeans(data, 8, np.random.default_rng(4))
        assert centers.shape == (8, 4)

    def test_kmeans_validates(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 3)), 0, np.random.default_rng(0))


class TestRQVAEModel:
    def make(self, **kwargs):
        defaults = dict(input_dim=8, latent_dim=4, hidden_dims=(16,),
                        num_levels=3, codebook_size=6)
        defaults.update(kwargs)
        return RQVAE(RQVAEConfig(**defaults))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RQVAE(RQVAEConfig(num_levels=0))
        with pytest.raises(ValueError):
            RQVAE(RQVAEConfig(codebook_size=1))

    def test_forward_returns_losses_and_codes(self):
        model = self.make()
        data, _ = clustered_embeddings(n=20, dim=8)
        total, parts, codes = model(Tensor(data))
        assert set(parts) == {"recon", "rq", "total"}
        assert codes.shape == (20, 3)
        assert total.item() > 0

    def test_quantize_shapes(self):
        model = self.make()
        data, _ = clustered_embeddings(n=15, dim=8)
        result = model.quantize(data)
        assert result.codes.shape == (15, 3)
        assert result.level_residuals.shape == (15, 3, 4)
        assert result.quantized.shape == (15, 4)

    def test_residual_identity(self):
        """level_residual[h+1] = level_residual[h] - chosen codebook vector."""
        model = self.make()
        data, _ = clustered_embeddings(n=10, dim=8)
        result = model.quantize(data)
        for h in range(2):
            book = model.codebooks[h].vectors.data
            expected = result.level_residuals[:, h] - book[result.codes[:, h]]
            np.testing.assert_allclose(result.level_residuals[:, h + 1],
                                       expected, atol=1e-5)

    def test_quantized_is_sum_of_codebook_vectors(self):
        model = self.make()
        data, _ = clustered_embeddings(n=10, dim=8)
        result = model.quantize(data)
        total = np.zeros_like(result.quantized)
        for h in range(3):
            total += model.codebooks[h].vectors.data[result.codes[:, h]]
        np.testing.assert_allclose(result.quantized, total, atol=1e-5)

    def test_gradients_reach_encoder_decoder_codebooks(self):
        model = self.make()
        data, _ = clustered_embeddings(n=12, dim=8)
        total, _, _ = model(Tensor(data))
        total.backward()
        grouped = {"encoder": False, "decoder": False, "codebooks": False}
        for name, param in model.named_parameters():
            if param.grad is not None and np.abs(param.grad).sum() > 0:
                for key in grouped:
                    if name.startswith(key):
                        grouped[key] = True
        assert all(grouped.values()), f"missing gradients: {grouped}"

    def test_kmeans_init_reduces_quantisation_error(self):
        model = self.make()
        data, _ = clustered_embeddings(n=40, dim=8)
        before = model.quantize(data)
        error_before = np.abs(before.level_residuals[:, -1]).mean()
        model.init_codebooks_kmeans(data)
        after = model.quantize(data)
        error_after = np.abs(after.level_residuals[:, -1]).mean()
        assert error_after < error_before


class TestRQVAETraining:
    def test_reconstruction_loss_decreases(self):
        # Note: the *total* loss is not monotone early in training (the
        # commitment term grows while the encoder drifts from the k-means
        # initialised codebooks); reconstruction is the meaningful signal.
        data, _ = clustered_embeddings(n=50, dim=8)
        model = RQVAE(RQVAEConfig(input_dim=8, latent_dim=4,
                                  hidden_dims=(16,), num_levels=3,
                                  codebook_size=6))
        trainer = RQVAETrainer(model, RQVAETrainerConfig(epochs=40,
                                                         batch_size=25))
        history = trainer.fit(data)
        assert history[-1]["recon"] < history[0]["recon"]

    def test_reconstruction_quality_improves(self):
        data, _ = clustered_embeddings(n=50, dim=8)
        model = RQVAE(RQVAEConfig(input_dim=8, latent_dim=4,
                                  hidden_dims=(16,), num_levels=3,
                                  codebook_size=6))
        error_before = np.abs(model.reconstruct(data) - data).mean()
        RQVAETrainer(model, RQVAETrainerConfig(epochs=60,
                                               batch_size=25)).fit(data)
        error_after = np.abs(model.reconstruct(data) - data).mean()
        assert error_after < error_before

    def test_dim_mismatch_rejected(self):
        model = RQVAE(RQVAEConfig(input_dim=8))
        trainer = RQVAETrainer(model, RQVAETrainerConfig(epochs=1))
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((10, 5), dtype=np.float32))

    def test_similar_items_share_prefix_codes(self):
        """Items from the same cluster should share the level-0 code."""
        data, labels = clustered_embeddings(n=60, dim=8, clusters=4)
        model = RQVAE(RQVAEConfig(input_dim=8, latent_dim=4,
                                  hidden_dims=(16,), num_levels=3,
                                  codebook_size=8))
        RQVAETrainer(model, RQVAETrainerConfig(epochs=80,
                                               batch_size=60)).fit(data)
        codes = model.quantize(data).codes
        agreements = 0
        total = 0
        for cluster in range(4):
            members = codes[labels == cluster, 0]
            values, counts = np.unique(members, return_counts=True)
            agreements += counts.max()
            total += counts.sum()
        assert agreements / total > 0.7
