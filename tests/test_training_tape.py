"""The training tape: fused nodes, node links, and a backward that frees as it goes.

``MultiHeadAttention.forward`` records its scores → softmax → dropout → ``@ v``
chain as one tape node, ``RotaryEmbedding.apply`` its rotation as another and
``SwiGLU.forward`` its ``silu(gate) * up`` as a third.  Each must reproduce
the composition of primitive ``Tensor`` ops it replaced bit for bit —
outputs, every gradient, and so every weight after training — which this
file keeps as a test-local reference.  The memory guards pin what the
fusion, the node links (an op output dies with its last reference unless a
backward reads it) and the freeing buy.
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
from repro.llm.model import SwiGLU
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


def reference_swiglu_forward(self, x):
    """The gating composed from a ``silu`` node and a ``*`` node."""
    return self.down_proj(self.gate_proj(x).silu() * self.up_proj(x))


@pytest.fixture
def composed(monkeypatch):
    """Patch the primitive-op reference in for the three fused nodes."""

    def patch():
        monkeypatch.setattr(MultiHeadAttention, "forward", reference_attention_forward)
        monkeypatch.setattr(RotaryEmbedding, "apply", reference_rope_apply)
        monkeypatch.setattr(SwiGLU, "forward", reference_swiglu_forward)

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


def test_swiglu_is_bit_identical_to_the_composition(composed):
    rng = np.random.default_rng(11)
    module = SwiGLU(16, 24, np.random.default_rng(12))
    data = rng.standard_normal((3, 5, 16)).astype(np.float32)
    upstream = rng.standard_normal((3, 5, 16)).astype(np.float32)
    results = []
    for patch in (lambda: None, composed):
        patch()
        module.zero_grad()
        x = Tensor(data, requires_grad=True)
        out = module(x)
        (out * upstream).sum().backward()
        results.append([out.data, x.grad] + [p.grad for p in module.parameters()])
    for fused, reference in zip(*results):
        assert np.array_equal(fused, reference)


def traced_step_peak(loss_fn, optimizer):
    """``tracemalloc``'s peak over one forward, backward and optimiser step."""
    tracemalloc.start()
    try:
        loss = loss_fn()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fixture_shaped_pretrain_step_peak_memory():
    """One ledger-fixture-shaped LM pretraining step (vocabulary 758).

    The composed tape held every score, masked copy and RoPE temporary
    until the end of the backward and read a 119 MB traced peak; the fused
    nodes and the freeing backward read 79 MB; node links, the fused
    SwiGLU and ``bool`` dropout masks read 58 MB.  The bound is that plus
    10 %.
    """
    config = LMConfig(vocab_size=758, dim=128, num_layers=4, num_heads=8, ffn_hidden=352,
                      max_seq_len=256, seed=0)
    model = TinyLlama(config)
    optimizer = AdamW(model.parameters(), lr=1e-3)
    batch = np.random.default_rng(0).integers(0, config.vocab_size, size=(16, 65))
    model.train()
    peak = traced_step_peak(
        lambda: F.cross_entropy(model(batch[:, :-1]), batch[:, 1:]), optimizer
    )
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_fixture_shaped_tiger_step_peak_memory():
    """One ledger-fixture-shaped TIGER training step (413 items, batch 64).

    Tensor-linked parents, ``__add__`` closures holding whole tensors and
    float32 dropout masks read a 76.7 MB traced peak; node links and
    ``bool`` masks read 35.6 MB.  The bound is that plus 10 %.
    """
    num_items, batch = 413, 64
    index_set = build_random_index_set(num_items, 3, 256, np.random.default_rng(0))
    model = TIGER(index_set, TIGERConfig(dim=128, num_heads=4, seed=0))
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(1)
    source = model._pad_histories(
        [list(rng.integers(0, num_items, size=10)) for _ in range(batch)]
    )
    targets = np.array(
        [model.space.item_tokens(int(i)) for i in rng.integers(0, num_items, batch)]
    )
    decoder_input = np.concatenate([np.full((batch, 1), BOS_ID), targets[:, :-1]], axis=1)
    model.train()
    peak = traced_step_peak(
        lambda: F.cross_entropy(model(source, decoder_input), targets), optimizer
    )
    assert peak < 39.2 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_activations_no_backward_reads_are_dead_once_the_loss_exists(monkeypatch, dropout):
    """An ``out_proj`` output and a pre-RoPE q die in the forward.

    The residual ``+`` (or, with dropout on, the dropout node before it)
    keeps no operand and the RoPE node only its tables, and the tape links
    nodes, not tensors, so nothing holds them by the time the loss exists.
    """
    config = LMConfig(vocab_size=40, dim=32, num_layers=2, num_heads=4, ffn_hidden=48,
                      max_seq_len=16, dropout=dropout, seed=0)
    model = TinyLlama(config)
    model.train()
    watched = {}
    out_proj = model.blocks[0].attention.out_proj
    out_proj_forward = out_proj.forward

    def recording_out_proj(x):
        out = out_proj_forward(x)
        watched.setdefault("out_proj output", weakref.ref(out.data))
        return out

    rope_apply = RotaryEmbedding.apply

    def recording_rope_apply(self, x, offset=0):
        watched.setdefault("pre-RoPE q", weakref.ref(x.data))
        return rope_apply(self, x, offset)

    monkeypatch.setattr(out_proj, "forward", recording_out_proj)
    monkeypatch.setattr(RotaryEmbedding, "apply", recording_rope_apply)
    batch = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 9))
    loss = F.cross_entropy(model(batch[:, :-1]), batch[:, 1:])
    assert sorted(watched) == ["out_proj output", "pre-RoPE q"]
    assert {name: ref() is None for name, ref in watched.items()} == {
        "out_proj output": True,
        "pre-RoPE q": True,
    }
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())


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
    assert out._node.backward is None and out._node.parents == ()
