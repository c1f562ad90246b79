"""Tests for the module system, optimisers and schedules."""

import numpy as np
import pytest

from repro.tensor import (
    MLP,
    Adam,
    AdamW,
    CosineWarmup,
    Dropout,
    Embedding,
    GRU,
    LayerNorm,
    Linear,
    Module,
    RMSNorm,
    Tensor,
    clip_grad_norm,
)


def rng():
    return np.random.default_rng(11)


class TestModuleSystem:
    def test_named_parameters_nested(self):
        model = MLP([4, 8, 2], rng=rng())
        names = dict(model.named_parameters())
        assert "linears.0.weight" in names
        assert "linears.1.bias" in names
        assert len(names) == 4

    def test_num_parameters(self):
        layer = Linear(4, 8, rng=rng())
        assert layer.num_parameters() == 4 * 8 + 8

    def test_state_dict_roundtrip(self):
        model_a = MLP([4, 8, 2], rng=rng())
        model_b = MLP([4, 8, 2], rng=np.random.default_rng(99))
        model_b.load_state_dict(model_a.state_dict())
        x = Tensor(rng().standard_normal((3, 4)).astype(np.float32))
        np.testing.assert_allclose(model_a(x).data, model_b(x).data)

    def test_load_state_dict_rejects_mismatch(self):
        model = Linear(4, 8, rng=rng())
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((4, 8))})

    def test_load_state_dict_rejects_bad_shape(self):
        model = Linear(4, 8, rng=rng())
        state = model.state_dict()
        state["weight"] = np.zeros((3, 8))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = Module()
        model.linear = Linear(4, 4, rng=rng())
        model.dropout = Dropout(0.5, rng=rng())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        layer = Linear(3, 3, rng=rng())
        out = layer(Tensor(np.ones((2, 3), dtype=np.float32)))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(5, 7, rng=rng())
        out = layer(Tensor(np.zeros((2, 3, 5), dtype=np.float32)))
        assert out.shape == (2, 3, 7)

    def test_linear_no_bias(self):
        layer = Linear(5, 7, bias=False, rng=rng())
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1

    def test_embedding_lookup(self):
        emb = Embedding(10, 4, rng=rng())
        out = emb(np.array([[1, 2], [3, 1]]))
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 0], emb.weight.data[1])

    def test_embedding_extend(self):
        emb = Embedding(10, 4, rng=rng())
        before = emb.weight.data.copy()
        emb.extend(5, rng=rng())
        assert emb.weight.shape == (15, 4)
        assert emb.num_embeddings == 15
        np.testing.assert_allclose(emb.weight.data[:10], before)

    def test_layer_norm_statistics(self):
        norm = LayerNorm(8)
        x = Tensor(rng().standard_normal((4, 8)).astype(np.float32) * 5 + 3)
        out = norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_rms_norm_scale(self):
        norm = RMSNorm(8)
        x = Tensor(rng().standard_normal((4, 8)).astype(np.float32))
        out = norm(x).data
        rms = np.sqrt((out**2).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-2)

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.5)

    def test_mlp_depth(self):
        mlp = MLP([4, 16, 16, 2], rng=rng())
        assert len(mlp.linears) == 3
        out = mlp(Tensor(np.zeros((5, 4), dtype=np.float32)))
        assert out.shape == (5, 2)

    def test_mlp_requires_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_gru_shapes(self):
        gru = GRU(6, 8, rng=rng())
        out = gru(Tensor(rng().standard_normal((3, 5, 6)).astype(np.float32)))
        assert out.shape == (3, 5, 8)

    def test_gru_gradient_flows(self):
        gru = GRU(4, 4, rng=rng())
        x = Tensor(rng().standard_normal((2, 3, 4)).astype(np.float32))
        gru(x).sum().backward()
        assert all(p.grad is not None for p in gru.parameters())


class TestOptimizers:
    @staticmethod
    def quadratic_setup():
        param = Linear(1, 1, bias=False, rng=rng())
        param.weight.data[:] = 5.0
        return param

    def _minimise(self, optimizer_factory, steps=200):
        layer = self.quadratic_setup()
        optimizer = optimizer_factory(layer.parameters())
        x = Tensor(np.ones((8, 1), dtype=np.float32))
        for _ in range(steps):
            optimizer.zero_grad()
            out = layer(x)
            (out * out).mean().backward()
            optimizer.step()
        return abs(layer.weight.data.item())

    def test_adam_minimises(self):
        assert self._minimise(lambda p: Adam(p, lr=0.1)) < 1e-2

    def test_adamw_minimises(self):
        assert self._minimise(lambda p: AdamW(p, lr=0.1)) < 1e-2

    def test_adamw_decay_is_decoupled(self):
        layer = Linear(2, 2, bias=False, rng=rng())
        opt = AdamW(layer.parameters(), lr=0.1)
        before = np.abs(layer.weight.data).sum()
        # Zero gradient: the Adam update vanishes but decay still shrinks.
        layer.weight.grad = np.zeros_like(layer.weight.data)
        opt.step()
        assert np.abs(layer.weight.data).sum() < before

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)

    def test_clip_grad_norm(self):
        layer = Linear(4, 4, rng=rng())
        out = layer(Tensor(np.full((2, 4), 100.0, dtype=np.float32)))
        (out * out).sum().backward()
        norm_before = clip_grad_norm(layer.parameters(), max_norm=1.0)
        assert norm_before > 1.0
        total = sum(float((p.grad**2).sum()) for p in layer.parameters())
        assert np.sqrt(total) <= 1.0 + 1e-4


class TestSchedules:
    def test_cosine_warmup_shape(self):
        sched = CosineWarmup(1.0, warmup_steps=10, total_steps=110)
        assert sched.lr_at(0) < sched.lr_at(9)
        assert sched.lr_at(10) == pytest.approx(1.0, abs=1e-6)
        assert sched.lr_at(60) < sched.lr_at(10)
        assert sched.lr_at(109) == pytest.approx(0.0, abs=1e-3)

    def test_cosine_min_lr_floor(self):
        sched = CosineWarmup(1.0, warmup_steps=0, total_steps=100)
        assert sched.lr_at(100) == 0.0
        assert sched.lr_at(10_000) == 0.0

    def test_apply_sets_optimizer_lr(self):
        layer = Linear(2, 2, rng=rng())
        opt = Adam(layer.parameters(), lr=1.0)
        sched = CosineWarmup(1.0, warmup_steps=5, total_steps=50)
        sched.apply(opt, 0)
        assert opt.lr == pytest.approx(0.2)

    def test_total_steps_validated(self):
        with pytest.raises(ValueError):
            CosineWarmup(1.0, warmup_steps=0, total_steps=0)
