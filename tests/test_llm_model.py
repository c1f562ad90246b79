"""Tests for the TinyLlama language model."""

import numpy as np
import pytest

from repro.llm import LMConfig, TinyLlama
from repro.tensor import no_grad


def make_model(**kwargs):
    defaults = dict(vocab_size=50, dim=32, num_layers=2, num_heads=4,
                    ffn_hidden=48, max_seq_len=64, seed=5)
    defaults.update(kwargs)
    return TinyLlama(LMConfig(**defaults))


class TestTinyLlama:
    def test_logit_shape(self):
        model = make_model()
        tokens = np.zeros((2, 7), dtype=np.int64)
        assert model(tokens).shape == (2, 7, 50)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TinyLlama(LMConfig(dim=30, num_heads=4))  # not divisible
        with pytest.raises(ValueError):
            TinyLlama(LMConfig(dim=12, num_heads=4))  # odd head dim (3)
        with pytest.raises(ValueError):
            TinyLlama(LMConfig(vocab_size=2))

    def test_causality(self):
        model = make_model()
        model.eval()
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 50, size=(1, 6))
        with no_grad():
            base = model(tokens).data
            perturbed = tokens.copy()
            perturbed[0, -1] = (perturbed[0, -1] + 1) % 50
            changed = model(perturbed).data
        np.testing.assert_allclose(base[0, :5], changed[0, :5], atol=1e-4)

    def test_incremental_matches_full(self):
        model = make_model()
        model.eval()
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 50, size=(1, 8))
        with no_grad():
            full = model(tokens).data
            caches = model.new_caches()
            prefix_logits = model(tokens[:, :5], caches=caches).data
            step_outputs = [prefix_logits]
            for t in range(5, 8):
                step_outputs.append(model(tokens[:, t:t + 1],
                                          caches=caches).data)
        incremental = np.concatenate(step_outputs, axis=1)
        np.testing.assert_allclose(full, incremental, atol=1e-3)

    def test_extend_vocab_grows_both_ends(self):
        model = make_model()
        model.extend_vocab(10)
        assert model.vocab_size == 60
        tokens = np.array([[55, 59]])
        assert model(tokens).shape == (1, 2, 60)

    def test_extend_vocab_preserves_old_logits(self):
        model = make_model()
        model.eval()
        tokens = np.array([[1, 2, 3]])
        with no_grad():
            before = model(tokens).data
        model.extend_vocab(5)
        with no_grad():
            after = model(tokens).data
        np.testing.assert_allclose(before, after[:, :, :50], atol=1e-5)

    def test_extend_vocab_zero_is_noop(self):
        model = make_model()
        model.extend_vocab(0)
        assert model.vocab_size == 50

    def test_gradients_flow_everywhere(self):
        model = make_model(num_layers=1)
        from repro.tensor import functional as F

        tokens = np.random.default_rng(2).integers(0, 50, size=(2, 5))
        targets = np.random.default_rng(3).integers(0, 50, size=(2, 5))
        loss = F.cross_entropy(model(tokens), targets)
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no grad: {name}"

    def test_cache_reorder_for_beams(self):
        model = make_model()
        model.eval()
        with no_grad():
            caches = model.new_caches()
            tokens = np.array([[1, 2], [3, 4]])
            model(tokens, caches=caches)
            for cache in caches:
                cache.reorder(np.array([1, 0]))
            assert caches[0].keys.shape[0] == 2

    def test_hidden_states_shape(self):
        model = make_model()
        hidden = model.hidden_states(np.zeros((3, 4), dtype=np.int64))
        assert hidden.shape == (3, 4, 32)
