"""Gradient checks and graph-mechanics tests for the autodiff engine."""

import copy

import numpy as np
import pytest

from repro.tensor import Parameter, Tensor, concat, no_grad, stack, where
from repro.tensor import functional as F

from helpers import check_gradient

RNG = np.random.default_rng(7)


def rand(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda x: x + 3.0, rand(4, 5))

    def test_mul_broadcast(self):
        other = Tensor(rand(5))
        check_gradient(lambda x: x * other, rand(4, 5))

    def test_div(self):
        denom = Tensor(np.abs(rand(4, 5)) + 1.0)
        check_gradient(lambda x: x / denom, rand(4, 5))

    def test_rsub(self):
        check_gradient(lambda x: 2.0 - x, rand(3, 3))

    def test_pow(self):
        check_gradient(lambda x: x**3, rand(3, 4))

    def test_exp(self):
        check_gradient(lambda x: x.exp(), rand(3, 4) * 0.5)

    def test_log(self):
        check_gradient(lambda x: x.log(), np.abs(rand(3, 4)) + 1.0)

    def test_sqrt(self):
        check_gradient(lambda x: x.sqrt(), np.abs(rand(3, 4)) + 1.0)

    def test_tanh(self):
        check_gradient(lambda x: x.tanh(), rand(3, 4))

    def test_sigmoid(self):
        check_gradient(lambda x: x.sigmoid(), rand(3, 4))

    def test_relu(self):
        x = rand(4, 4)
        x[np.abs(x) < 0.1] = 0.5  # avoid kinks near zero
        check_gradient(lambda t: t.relu(), x)

    def test_silu(self):
        check_gradient(lambda x: x.silu(), rand(3, 4))

    def test_abs(self):
        x = rand(3, 4)
        x[np.abs(x) < 0.1] = 0.7
        check_gradient(lambda t: t.abs(), x)

    def test_neg(self):
        check_gradient(lambda x: -x, rand(2, 3))


class TestMatmulGradients:
    def test_matmul_2d(self):
        other = Tensor(rand(5, 3))
        check_gradient(lambda x: x @ other, rand(4, 5))

    def test_matmul_right_operand(self):
        left = Tensor(rand(4, 5))
        check_gradient(lambda x: left @ x, rand(5, 3))

    def test_matmul_batched(self):
        other = Tensor(rand(2, 5, 3))
        check_gradient(lambda x: x @ other, rand(2, 4, 5))

    def test_matmul_broadcast_batch(self):
        other = Tensor(rand(5, 3))
        check_gradient(lambda x: x @ other, rand(2, 4, 5))

    def test_matmul_vector_right(self):
        vec = Tensor(rand(5))
        check_gradient(lambda x: x @ vec, rand(4, 5))

    def test_matmul_vector_left(self):
        mat = Tensor(rand(5, 3))
        check_gradient(lambda x: x @ mat, rand(5))


class TestShapeOps:
    def test_reshape(self):
        check_gradient(lambda x: (x.reshape(2, 6) * 2.0), rand(3, 4))

    def test_transpose(self):
        other = Tensor(rand(3, 2))
        check_gradient(lambda x: x.transpose(1, 0) @ other, rand(3, 4))

    def test_swapaxes(self):
        check_gradient(lambda x: x.swapaxes(0, 1) * 1.5, rand(3, 4))

    def test_getitem_slice(self):
        check_gradient(lambda x: x[1:, :2] * 2.0, rand(4, 4))

    def test_getitem_int_array(self):
        idx = np.array([0, 2, 2, 1])
        check_gradient(lambda x: x[idx] * 3.0, rand(3, 4))

    def test_concat(self):
        other = Tensor(rand(2, 4))
        check_gradient(lambda x: concat([x, other], axis=0) * 2.0, rand(3, 4))

    def test_stack(self):
        other = Tensor(rand(3, 4))
        check_gradient(lambda x: stack([x, other], axis=1).tanh(), rand(3, 4))

    def test_where(self):
        cond = RNG.random((3, 4)) > 0.5
        other = Tensor(rand(3, 4))
        check_gradient(lambda x: where(cond, x, other), rand(3, 4))


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda x: (x * x).sum(), rand(3, 4))

    def test_sum_axis(self):
        check_gradient(lambda x: x.sum(axis=1).tanh(), rand(3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda x: x.sum(axis=0, keepdims=True) * 2.0, rand(3, 4))

    def test_mean(self):
        check_gradient(lambda x: x.mean(axis=1), rand(3, 4))

    def test_max(self):
        x = rand(4, 5)
        # Separate values to avoid tie ambiguity in numeric differencing.
        x += np.arange(20).reshape(4, 5) * 0.1
        check_gradient(lambda t: t.max(axis=1), x)


class TestFusedOps:
    def test_softmax(self):
        check_gradient(lambda x: F.softmax(x).log(), rand(3, 5) * 0.5)

    def test_log_softmax(self):
        check_gradient(lambda x: F.log_softmax(x), rand(3, 5))

    def test_logsumexp(self):
        check_gradient(lambda x: F.logsumexp(x, axis=-1), rand(3, 5))

    def test_logsumexp_keepdims(self):
        check_gradient(lambda x: F.logsumexp(x, axis=1, keepdims=True), rand(3, 5))

    def test_cross_entropy(self):
        targets = np.array([0, 2, 1])
        check_gradient(lambda x: F.cross_entropy(x, targets), rand(3, 4))

    def test_cross_entropy_ignore_index(self):
        targets = np.array([0, -100, 3])
        check_gradient(
            lambda x: F.cross_entropy(x, targets, ignore_index=-100), rand(3, 4)
        )

    def test_cross_entropy_value(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([1, 2]))
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-5)

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_cross_entropy_rejects_out_of_range_targets(self, bad):
        # -1 used to train on the last class through negative indexing,
        # 7 over 5 classes to raise a bare IndexError.
        logits = Tensor(rand(2, 5), requires_grad=True)
        with pytest.raises(ValueError, match=rf"target {bad} is outside \[0, 5\)"):
            F.cross_entropy(logits, np.array([bad, 1]))
        with pytest.raises(ValueError, match=f"target {bad} "):
            F.cross_entropy(logits, np.array([bad, 1]), ignore_index=-100)

    def test_cross_entropy_ignore_index_is_not_out_of_range(self):
        logits = Tensor(np.zeros((2, 5), dtype=np.float32), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([-100, 1]), ignore_index=-100)
        assert loss.item() == pytest.approx(np.log(5.0), rel=1e-5)
        loss.backward()
        assert np.array_equal(logits.grad[0], np.zeros(5, dtype=np.float32))

    def test_layer_norm(self):
        weight = Tensor(rand(6), requires_grad=False)
        bias = Tensor(rand(6), requires_grad=False)
        check_gradient(lambda x: F.layer_norm(x, weight, bias), rand(4, 6))

    def test_layer_norm_param_grads(self):
        x = Tensor(rand(4, 6))
        weight = Tensor(np.ones(6, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(6, dtype=np.float32), requires_grad=True)
        out = F.layer_norm(x, weight, bias)
        out.sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(6, 4.0), atol=1e-5)

    def test_rms_norm(self):
        weight = Tensor(rand(6) + 2.0, requires_grad=False)
        check_gradient(lambda x: F.rms_norm(x, weight), rand(4, 6) + 0.5)

    def test_embedding(self):
        idx = np.array([[0, 1], [2, 0]])
        check_gradient(lambda w: F.embedding(w, idx) * 2.0, rand(4, 3))

    def test_masked_fill(self):
        mask = RNG.random((3, 4)) > 0.5
        check_gradient(lambda x: F.masked_fill(x, mask, -1e9).tanh(), rand(3, 4))

    def test_dropout_eval_is_identity(self):
        x = Tensor(rand(5, 5))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_scales(self):
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        # Inverted dropout keeps the expectation approximately constant.
        assert abs(out.data.mean() - 1.0) < 0.1


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_blocks_taping(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._node is None
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_rejects_a_seed_of_the_wrong_shape(self):
        x = Tensor(rand(2, 3), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(2, 1\).*\(2, 3\)"):
            x.backward(np.ones((2, 1), dtype=np.float32))
        assert x.grad is None

    def test_backward_rejects_a_seed_that_would_broadcast(self):
        x = Tensor(rand(2), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(1,\).*\(2,\)"):
            (x * 2.0).backward(np.ones((1,), dtype=np.float32))
        assert x.grad is None

    def test_a_deep_copied_parameter_is_its_own_leaf(self):
        original = Parameter(rand(2, 2))
        (original * 2.0).sum()  # taped forward: the parameter now has a leaf node
        clone = copy.deepcopy(original)
        (clone * 3.0).sum().backward()
        assert original.grad is None
        np.testing.assert_array_equal(clone.grad, np.full((2, 2), 3.0, dtype=np.float32))

    def test_backward_on_leafless_raises(self):
        x = Tensor(rand(2, 2))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_detach_cuts_graph(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        y = (x * 2.0).detach() * 3.0
        assert not y.requires_grad

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        a = x * 2.0
        b = x * 4.0
        (a * b).backward()  # d/dx 8x^2 = 16x = 48
        np.testing.assert_allclose(x.grad, [48.0])

    def test_float64_input_downcast(self):
        x = Tensor(np.ones((2, 2), dtype=np.float64))
        assert x.dtype == np.float32

    def test_second_backward_possible_after_rebuild(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        (x * x).backward()
        first = x.grad.copy()
        (x * x).backward()
        np.testing.assert_allclose(x.grad, first * 2)
