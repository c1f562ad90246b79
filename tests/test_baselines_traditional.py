"""Tests for the traditional (ID-based) baselines and the shared trainer."""

import numpy as np
import pytest

from repro.baselines import (
    BERT4Rec,
    BaselineTrainer,
    BaselineTrainerConfig,
    Caser,
    FDSA,
    FMLP,
    FilterLayer,
    GRU4Rec,
    HGN,
    S3Rec,
    SASRec,
)
from repro.tensor import Tensor


def all_models(dataset, dim=16):
    n = dataset.num_items
    subs = dataset.catalog.subcategories()
    num_subs = dataset.catalog.num_subcategories
    return [
        Caser(n, dim=dim),
        HGN(n, dim=dim),
        GRU4Rec(n, dim=dim),
        BERT4Rec(n, dim=dim),
        SASRec(n, dim=dim),
        FMLP(n, dim=dim),
        FDSA(n, subs, num_subs, dim=dim),
        S3Rec(n, subs, num_subs, dim=dim),
    ]


class TestInterfaces:
    def test_score_all_shapes(self, tiny_dataset):
        histories = tiny_dataset.split.test_histories[:6]
        for model in all_models(tiny_dataset):
            scores = model.score_all(histories)
            assert scores.shape == (6, tiny_dataset.num_items), model.name

    def test_recommend_returns_ranked_ids(self, tiny_dataset):
        history = tiny_dataset.split.test_histories[0]
        for model in all_models(tiny_dataset):
            ranked = model.recommend(history, top_k=5)
            assert len(ranked) == 5, model.name
            assert len(set(ranked)) == 5
            assert all(0 <= i < tiny_dataset.num_items for i in ranked)

    def test_pad_id_outside_item_range(self, tiny_dataset):
        for model in all_models(tiny_dataset):
            assert model.pad_id == tiny_dataset.num_items

    def test_empty_history_scores(self, tiny_dataset):
        for model in all_models(tiny_dataset):
            scores = model.score_all([[]])
            assert np.isfinite(scores).all(), model.name


class TestTraining:
    @pytest.mark.parametrize("model_index", range(8))
    def test_fit_reduces_loss(self, tiny_dataset, model_index):
        model = all_models(tiny_dataset)[model_index]
        trainer = BaselineTrainer(BaselineTrainerConfig(epochs=5,
                                                        batch_size=32))
        losses = trainer.fit(model, tiny_dataset)
        assert losses[-1] < losses[0], model.name

    def test_training_beats_random_ranking(self, tiny_dataset):
        from helpers import evaluate_scores

        model = SASRec(tiny_dataset.num_items, dim=16)
        trainer = BaselineTrainer(BaselineTrainerConfig(epochs=10,
                                                        batch_size=32))
        trainer.fit(model, tiny_dataset)
        report = evaluate_scores(model,
                                 tiny_dataset.split.test_histories,
                                 tiny_dataset.split.test_targets)
        # Random HR@10 would be 10/40 = 0.25.
        assert report["HR@10"] > 0.3

    def test_unknown_mode_rejected(self, tiny_dataset):
        model = SASRec(tiny_dataset.num_items, dim=16)
        model.training_mode = "bogus"
        with pytest.raises(ValueError):
            BaselineTrainer().fit(model, tiny_dataset)

    def test_masked_mode_requires_mask_id(self, tiny_dataset):
        model = SASRec(tiny_dataset.num_items, dim=16)
        model.training_mode = "masked"
        with pytest.raises(TypeError):
            BaselineTrainer().fit(model, tiny_dataset)


class TestModelSpecifics:
    def test_sasrec_causality(self, tiny_dataset):
        model = SASRec(tiny_dataset.num_items, dim=16)
        model.eval()
        seq = np.array([[0, 1, 2, 3]])
        from repro.tensor import no_grad

        with no_grad():
            base = model.sequence_output(seq).data
            changed_input = seq.copy()
            changed_input[0, -1] = 5
            changed = model.sequence_output(changed_input).data
        np.testing.assert_allclose(base[0, :3], changed[0, :3], atol=1e-5)

    def test_bert4rec_is_bidirectional(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset.num_items, dim=16)
        model.eval()
        seq = np.array([[0, 1, 2, 3]])
        from repro.tensor import no_grad

        with no_grad():
            base = model.sequence_output(seq).data
            changed_input = seq.copy()
            changed_input[0, -1] = 5
            changed = model.sequence_output(changed_input).data
        assert not np.allclose(base[0, 0], changed[0, 0])

    def test_bert4rec_mask_position_scoring(self, tiny_dataset):
        model = BERT4Rec(tiny_dataset.num_items, dim=16)
        # History shorter than max_len: mask goes right after the history.
        scores = model.score_all([[1, 2, 3]])
        assert scores.shape == (1, tiny_dataset.num_items)

    def test_filter_layer_identity_at_init_is_near_input(self):
        rng = np.random.default_rng(0)
        layer = FilterLayer(seq_len=6, dim=4, rng=rng)
        x = Tensor(rng.standard_normal((2, 6, 4)).astype(np.float32))
        out = layer(x).data
        # Kernel initialises near a delta: output should correlate strongly.
        corr = np.corrcoef(out.ravel(), x.data.ravel())[0, 1]
        assert corr > 0.9

    def test_filter_layer_rejects_wrong_length(self):
        layer = FilterLayer(seq_len=6, dim=4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 4, 4), dtype=np.float32)))

    def test_filter_layer_equals_circular_convolution(self):
        rng = np.random.default_rng(1)
        layer = FilterLayer(seq_len=5, dim=2, rng=rng)
        x = rng.standard_normal((1, 5, 2)).astype(np.float32)
        out = layer(Tensor(x)).data
        kernel = layer.kernel.data
        # Reference: FFT-based circular convolution per dimension.
        expected = np.real(np.fft.ifft(
            np.fft.fft(x, axis=1) * np.fft.fft(kernel[None], axis=1), axis=1))
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_fdsa_validates_features(self, tiny_dataset):
        with pytest.raises(ValueError):
            FDSA(tiny_dataset.num_items, np.zeros(3), 4, dim=16)

    def test_s3rec_pretrain_improves_attribute_knowledge(self, tiny_dataset):
        subs = tiny_dataset.catalog.subcategories()
        model = S3Rec(tiny_dataset.num_items, subs,
                      tiny_dataset.catalog.num_subcategories, dim=16)
        losses = model.pretrain(tiny_dataset)
        assert losses[-1] < losses[0]
        assert model._bidirectional is False  # restored after pretraining

    def test_s3rec_pretrain_draws_from_the_model_seed(self, tiny_dataset):
        """Masks and batch order follow ``seed``: equal weights, no dropout,
        different seeds — different pretraining losses."""
        subs = tiny_dataset.catalog.subcategories()
        weights = None
        losses = []
        for seed in (1, 2):
            model = S3Rec(tiny_dataset.num_items, subs, tiny_dataset.catalog.num_subcategories,
                          dim=16, dropout=0.0, seed=seed)
            if weights is None:
                weights = model.state_dict()
            model.load_state_dict(weights)
            losses.append(model.pretrain(tiny_dataset))
        assert losses[0] != losses[1]

    def test_caser_window_shapes(self, tiny_dataset):
        model = Caser(tiny_dataset.num_items, dim=16, max_len=20)
        padded, lengths = model.pad_histories([[1, 2, 3]])
        representation = model.user_representation(padded, lengths)
        assert representation.shape == (1, 16)

    def test_sasrec_item_embedding_matrix(self, tiny_dataset):
        model = SASRec(tiny_dataset.num_items, dim=16)
        matrix = model.item_embedding_matrix()
        assert matrix.shape == (tiny_dataset.num_items, 16)
