"""The training tape: fused attention and RoPE nodes, and a backward that frees as it goes.

``MultiHeadAttention.forward`` records its scores → softmax → dropout → ``@ v``
chain as one tape node and ``RotaryEmbedding.apply`` its rotation as another.
Both must reproduce the composition of primitive ``Tensor`` ops they
replaced bit for bit — outputs, every gradient, and so every weight after
training — which this file keeps as a test-local reference.  The memory
guards pin what the fusion and the freeing buy.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.baselines import TIGER, TIGERConfig
from repro.baselines.generative import BOS_ID
from repro.core.indexer import build_random_index_set
from repro.llm import LMConfig, TinyLlama
from repro.tensor import (
    Adam,
    AdamW,
    MultiHeadAttention,
    Parameter,
    RotaryEmbedding,
    Tensor,
    causal_mask,
    concat,
)
from repro.tensor import functional as F


def reference_rope_apply(self, x, offset=0):
    """The rotation composed from slices, products and a ``concat``."""
    seq_len = x.shape[2]
    half = self.head_dim // 2
    cos = self.cos[offset : offset + seq_len][None, None, :, :]
    sin = self.sin[offset : offset + seq_len][None, None, :, :]
    x1 = x[..., :half]
    x2 = x[..., half:]
    return concat([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)


def reference_attention_forward(self, x, context=None, attn_mask=None):
    """Attention composed from primitive ops: one tape node per step."""
    source = context if context is not None else x
    q = self._split_heads(self.q_proj(x))
    k = self._split_heads(self.k_proj(source))
    v = self._split_heads(self.v_proj(source))
    if self.rope is not None and context is None:
        q = self.rope.apply(q)
        k = self.rope.apply(k)
    scale = 1.0 / np.sqrt(self.head_dim)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    if attn_mask is not None:
        scores = F.masked_fill(scores, attn_mask, -1e9)
    probs = self.attn_dropout(F.softmax(scores, axis=-1))
    return self.out_proj(self._merge_heads(probs @ v))


@pytest.fixture
def composed(monkeypatch):
    """Patch the primitive-op reference in for both fused nodes."""

    def patch():
        monkeypatch.setattr(MultiHeadAttention, "forward", reference_attention_forward)
        monkeypatch.setattr(RotaryEmbedding, "apply", reference_rope_apply)

    return patch


def state_bytes(module):
    return {name: value.tobytes() for name, value in module.state_dict().items()}


def run_attention(case):
    """Output, input gradients and parameter gradients of one attention call."""
    rng = np.random.default_rng(case["seed"])
    dim, heads, batch, q_len = 32, 4, 3, 7
    rope = RotaryEmbedding(dim // heads, max_positions=16) if case["rope"] else None
    module = MultiHeadAttention(
        dim, heads, rope=rope, dropout=case["dropout"], rng=np.random.default_rng(case["seed"])
    )
    module.train()
    x = Tensor(rng.standard_normal((batch, q_len, dim)).astype(np.float32), requires_grad=True)
    inputs = [x]
    context = None
    if case["context_len"]:
        context = Tensor(
            rng.standard_normal((batch, case["context_len"], dim)).astype(np.float32),
            requires_grad=True,
        )
        inputs.append(context)
    mask = case["mask"](batch, q_len, case["context_len"] or q_len, rng)
    out = module(x, context=context, attn_mask=mask)
    upstream = rng.standard_normal(out.shape).astype(np.float32)
    (out * upstream).sum().backward()
    grads = [t.grad for t in inputs] + [p.grad for p in module.parameters()]
    return out.data, grads


def key_pad_mask(batch, q_len, k_len, rng):
    lengths = rng.integers(1, k_len + 1, size=batch)
    return (np.arange(k_len)[None, :] >= lengths[:, None])[:, None, None, :]


CASES = {
    "causal_self_attention_with_rope": dict(
        seed=1, rope=True, dropout=0.0, context_len=0,
        mask=lambda b, q, k, rng: causal_mask(q, k),
    ),
    "cross_attention_with_key_pad_mask": dict(
        seed=2, rope=False, dropout=0.0, context_len=5, mask=key_pad_mask,
    ),
    "dropout_on": dict(
        seed=3, rope=True, dropout=0.3, context_len=0,
        mask=lambda b, q, k, rng: causal_mask(q, k),
    ),
    "no_mask": dict(
        seed=4, rope=False, dropout=0.0, context_len=0, mask=lambda b, q, k, rng: None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_attention_is_bit_identical_to_the_composition(name, composed):
    fused_out, fused_grads = run_attention(CASES[name])
    composed()
    reference_out, reference_grads = run_attention(CASES[name])
    assert np.array_equal(fused_out, reference_out)
    assert len(fused_grads) == len(reference_grads)
    for fused, reference in zip(fused_grads, reference_grads):
        assert fused is not None and np.array_equal(fused, reference)


def test_rope_at_an_offset_is_bit_identical(composed):
    rope = RotaryEmbedding(8, max_positions=32)
    data = np.random.default_rng(5).standard_normal((2, 3, 6, 8)).astype(np.float32)
    upstream = np.random.default_rng(6).standard_normal(data.shape).astype(np.float32)
    results = []
    for patch in (lambda: None, composed):
        patch()
        x = Tensor(data, requires_grad=True)
        out = rope.apply(x, offset=9)
        (out * upstream).sum().backward()
        results.append((out.data, x.grad))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def train_lm():
    config = LMConfig(vocab_size=50, dim=32, num_layers=2, num_heads=4, ffn_hidden=64,
                      max_seq_len=32, dropout=0.1, seed=3)
    model = TinyLlama(config)
    optimizer = AdamW(model.parameters(), lr=1e-2)
    rng = np.random.default_rng(8)
    model.train()
    for _ in range(3):
        batch = rng.integers(0, config.vocab_size, size=(4, 13))
        loss = F.cross_entropy(model(batch[:, :-1]), batch[:, 1:])
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return state_bytes(model)


def train_tiger():
    index_set = build_random_index_set(30, 3, 6, np.random.default_rng(9))
    model = TIGER(index_set, TIGERConfig(dim=32, num_heads=4, max_history=5, seed=9))
    optimizer = Adam(model.parameters(), lr=1e-2)
    rng = np.random.default_rng(10)
    model.train()
    for _ in range(3):
        source = model._pad_histories(
            [list(rng.integers(0, 30, size=rng.integers(1, 6))) for _ in range(6)]
        )
        targets = np.array([model.space.item_tokens(int(i)) for i in rng.integers(0, 30, 6)])
        decoder_input = np.concatenate([np.full((6, 1), BOS_ID), targets[:, :-1]], axis=1)
        loss = F.cross_entropy(model(source, decoder_input), targets)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return state_bytes(model)


@pytest.mark.parametrize("train", [train_lm, train_tiger], ids=["tinyllama", "tiger"])
def test_three_steps_train_byte_equal_weights(train, composed):
    fused = train()
    composed()
    assert fused == train()


def test_fixture_shaped_pretrain_step_peak_memory():
    """One ledger-fixture-shaped LM pretraining step (vocabulary 758).

    The composed tape held every score, masked copy and RoPE temporary
    until the end of the backward and read a 119 MB traced peak; the fused
    nodes and the freeing backward read 79 MB.
    """
    config = LMConfig(vocab_size=758, dim=128, num_layers=4, num_heads=8, ffn_hidden=352,
                      max_seq_len=256, seed=0)
    model = TinyLlama(config)
    optimizer = AdamW(model.parameters(), lr=1e-3)
    batch = np.random.default_rng(0).integers(0, config.vocab_size, size=(16, 65))
    model.train()
    tracemalloc.start()
    try:
        loss = F.cross_entropy(model(batch[:, :-1]), batch[:, 1:])
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 95 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_backward_frees_a_closure_array_before_upstream_nodes_run():
    leaf = Parameter(np.ones(4, dtype=np.float32))
    seen = {}

    def upstream_backward(g):
        seen["captured_alive"] = captured_ref() is not None
        return (g,)

    hidden = Tensor._make(leaf.data * 2, (leaf,), upstream_backward)

    def downstream(captured):
        def backward(g):
            return (g * captured,)

        return Tensor._make(hidden.data * captured, (hidden,), backward)

    captured = np.arange(4, dtype=np.float32)
    captured_ref = weakref.ref(captured)
    out = downstream(captured)
    del captured
    assert captured_ref() is not None  # only the downstream closure holds it
    out.sum().backward()
    assert seen == {"captured_alive": False}
    assert np.array_equal(leaf.grad, np.arange(4, dtype=np.float32))
    assert out._backward is None and out._parents == ()
