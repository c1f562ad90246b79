"""Tests for multi-head attention, RoPE and the KV cache."""

import numpy as np

from repro.tensor import (
    KVCache,
    MultiHeadAttention,
    RotaryEmbedding,
    Tensor,
    causal_mask,
)

from helpers import check_gradient


def rng():
    return np.random.default_rng(3)


class TestCausalMask:
    def test_square(self):
        mask = causal_mask(3, 3)
        expected = np.array(
            [[False, True, True], [False, False, True], [False, False, False]]
        )
        np.testing.assert_array_equal(mask, expected)

    def test_offset_decodes_one_step(self):
        # A single query at absolute position 2 may see keys 0..2 of 4.
        mask = causal_mask(1, 4, offset=2)
        np.testing.assert_array_equal(mask, [[False, False, False, True]])


class TestRotaryEmbedding:
    def test_rotation_preserves_norm(self):
        rope = RotaryEmbedding(head_dim=8, max_positions=32)
        x = Tensor(rng().standard_normal((2, 2, 5, 8)).astype(np.float32))
        out = rope.apply(x)
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=-1),
            np.linalg.norm(x.data, axis=-1),
            rtol=1e-4,
        )

    def test_position_zero_is_identity(self):
        rope = RotaryEmbedding(head_dim=8)
        x = Tensor(rng().standard_normal((1, 1, 1, 8)).astype(np.float32))
        np.testing.assert_allclose(rope.apply(x, offset=0).data, x.data, atol=1e-6)

    def test_relative_property(self):
        # <rope(q, m), rope(k, n)> depends only on m - n.
        rope = RotaryEmbedding(head_dim=8, max_positions=64)
        q = rng().standard_normal((1, 1, 1, 8)).astype(np.float32)
        k = rng().standard_normal((1, 1, 1, 8)).astype(np.float32)

        def score(m, n):
            qr = rope.apply(Tensor(q), offset=m).data
            kr = rope.apply(Tensor(k), offset=n).data
            return float((qr * kr).sum())

        assert abs(score(3, 1) - score(10, 8)) < 1e-4

    def test_odd_dim_rejected(self):
        try:
            RotaryEmbedding(head_dim=7)
        except ValueError:
            return
        raise AssertionError("expected ValueError for odd head_dim")

    def test_gradient_through_rope(self):
        rope = RotaryEmbedding(head_dim=4, max_positions=8)
        check_gradient(
            lambda x: rope.apply(x, offset=1),
            rng().standard_normal((1, 1, 3, 4)).astype(np.float32),
        )


class TestMultiHeadAttention:
    def make(self, dim=16, heads=4, rope=False):
        rope_obj = RotaryEmbedding(dim // heads) if rope else None
        return MultiHeadAttention(dim, heads, rope=rope_obj, rng=rng())

    def test_output_shape(self):
        attn = self.make()
        x = Tensor(rng().standard_normal((2, 5, 16)).astype(np.float32))
        assert attn(x).shape == (2, 5, 16)

    def test_cross_attention_shape(self):
        attn = self.make()
        x = Tensor(rng().standard_normal((2, 3, 16)).astype(np.float32))
        ctx = Tensor(rng().standard_normal((2, 7, 16)).astype(np.float32))
        assert attn(x, context=ctx).shape == (2, 3, 16)

    def test_causal_masking_blocks_future(self):
        attn = self.make()
        x_data = rng().standard_normal((1, 4, 16)).astype(np.float32)
        mask = causal_mask(4, 4)
        out_full = attn(Tensor(x_data), attn_mask=mask).data
        # Perturb the last position: earlier outputs must not change.
        x_perturbed = x_data.copy()
        x_perturbed[0, -1] += 10.0
        out_perturbed = attn(Tensor(x_perturbed), attn_mask=mask).data
        np.testing.assert_allclose(out_full[0, :3], out_perturbed[0, :3], atol=1e-5)
        assert not np.allclose(out_full[0, 3], out_perturbed[0, 3])

    def test_kv_cache_reorder(self):
        cache = KVCache()
        cache.append(np.arange(8.0).reshape(2, 1, 2, 2),
                     np.arange(8.0).reshape(2, 1, 2, 2))
        cache.reorder(np.array([1, 0]))
        assert cache.keys[0, 0, 0, 0] == 4.0

    def test_gradients_flow_to_all_projections(self):
        attn = self.make()
        x = Tensor(rng().standard_normal((2, 4, 16)).astype(np.float32))
        attn(x, attn_mask=causal_mask(4, 4)).sum().backward()
        for name, param in attn.named_parameters():
            assert param.grad is not None, f"no grad for {name}"

    def test_input_gradient(self):
        attn = self.make()
        attn.eval()
        check_gradient(
            lambda x: attn(x),
            rng().standard_normal((1, 3, 16)).astype(np.float32),
            atol=3e-2,
            rtol=3e-2,
        )

    def test_dim_head_divisibility_validated(self):
        try:
            MultiHeadAttention(10, 3)
        except ValueError:
            return
        raise AssertionError("expected ValueError")
