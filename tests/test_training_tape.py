"""The training tape: fused nodes, node links, rebuilt inputs, and a backward that frees as it goes.

``MultiHeadAttention.forward`` records its scores → softmax → dropout → ``@ v``
chain as one tape node, ``RotaryEmbedding.apply`` its rotation as another and
``SwiGLU.forward`` its ``silu(gate) * up`` as a third.  Each must reproduce
the composition of primitive ``Tensor`` ops it replaced bit for bit —
outputs, every gradient, and so every weight after training — which this
file keeps as a test-local reference.  The norms and SwiGLU hand the GEMM
that reads their output a rebuild instead of the array, and cross-entropy
turns one buffer into log-probs, probs and the gradient; their references
are the nodes as they were before, whose consumers keep the output and
whose cross-entropy copies.  The attention node recomputes its
probabilities in the backward and SwiGLU rebuilds ``gate`` and ``up``
through their GEMMs; their references are the fused nodes that kept those
arrays.  The head split, RoPE, a bias ``+``, ReLU and dropout pass their
operand's rebuild on, so the attention node keeps no q, k or v and the
FFN's ``fc2`` no input; their reference is those ops without it, whose
consumers keep the arrays.  A norm computes its rebuild once per backward
and shares it read-only.  The memory guards pin what the fusion, the node
links (an op output dies with its last reference unless a backward reads
it), the rebuilds, the recomputes and the freeing buy.
"""

from __future__ import annotations

import copy
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.baselines import TIGER, TIGERConfig
from repro.baselines.generative import BOS_ID
from repro.baselines.layers import PointwiseFeedForward
from repro.core.indexer import build_random_index_set
from repro.llm import LMConfig, TinyLlama
from repro.llm.model import SwiGLU
from repro.tensor import (
    Adam,
    AdamW,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    Parameter,
    RMSNorm,
    RotaryEmbedding,
    Tensor,
    causal_mask,
    concat,
    no_grad,
)
from repro.tensor import attention
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
    probs = self.attn_dropout(F.softmax(scores))
    return self.out_proj(self._merge_heads(probs @ v))


def reference_swiglu_forward(self, x):
    """The gating composed from a ``silu`` node and a ``*`` node."""
    return self.down_proj(self.gate_proj(x).silu() * self.up_proj(x))


def reference_kept_attention(q, k, v, attn_mask, dropout):
    """The fused attention node keeping its T×T probabilities for the backward."""
    scale = np.float32(1.0 / np.sqrt(q.shape[-1]))
    q_data, v_data = q.data, v.data
    kt = k.data.transpose(0, 1, 3, 2)
    scores = (q_data @ kt) * scale
    if attn_mask is not None:
        attn_mask = np.asarray(attn_mask, dtype=bool)
        scores = np.where(attn_mask, np.float32(-1e9), scores)
    # The node's own softmax, so a test watching it sees these probabilities.
    probs = attention._softmax_rows(scores)[0]
    keep = F.dropout_keep(probs.shape, dropout.p, dropout.rng, dropout.training)
    p = dropout.p
    out_data = (probs if keep is None else probs * F.dropout_mask(keep, p)) @ v_data

    def backward(g):
        mask = None if keep is None else F.dropout_mask(keep, p)
        dropped = probs if mask is None else probs * mask
        g_probs = g @ np.swapaxes(v_data, -1, -2)
        g_v = np.swapaxes(dropped, -1, -2) @ g
        if mask is not None:
            g_probs = g_probs * mask
        g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True))
        if attn_mask is not None:
            g_scores = np.where(attn_mask, 0.0, g_scores)
        g_scores = g_scores * scale
        g_q = g_scores @ np.swapaxes(kt, -1, -2)
        g_k = (np.swapaxes(q_data, -1, -2) @ g_scores).transpose(0, 1, 3, 2)
        return (g_q, g_k, g_v)

    return Tensor._make(out_data, (q, k, v), backward)


def reference_kept_swiglu(gate, up):
    """The fused SwiGLU node keeping ``gate`` and ``up`` for the backward."""
    x, u = gate.data, up.data

    def output():
        out = np.negative(x)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
        out *= x
        out *= u
        return out

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-x))
        g_gate = g * u
        return (g_gate * (sig + x * sig * (1.0 - sig)), g * (x * sig))

    return Tensor._make(output(), (gate, up), backward, output)


def reference_rms_norm(x, weight, eps=1e-6):
    """RMSNorm keeping ``normed``, with no rebuild: its consumer keeps the output."""
    mean_sq = (x.data * x.data).mean(axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(mean_sq + eps)
    normed = x.data * inv_rms
    dim = x.shape[-1]
    feature_axes = tuple(range(x.ndim - 1))
    x_data, weight_data = x.data, weight.data

    def backward(g):
        g_normed = g * weight_data
        inner = (g_normed * x_data).sum(axis=-1, keepdims=True)
        gx = g_normed * inv_rms - x_data * inner * (inv_rms**3) / dim
        return (gx, (g * normed).sum(axis=feature_axes))

    return Tensor._make(weight.data * normed, (x, weight), backward)


def reference_layer_norm(x, weight, bias, eps=1e-5):
    """LayerNorm with no rebuild: its consumer keeps the output."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mu) * inv_std
    feature_axes = tuple(range(x.ndim - 1))
    weight_data = weight.data

    def backward(g):
        g_hat = g * weight_data
        gx = inv_std * (
            g_hat
            - g_hat.mean(axis=-1, keepdims=True)
            - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True)
        )
        return (gx, (g * x_hat).sum(axis=feature_axes), g.sum(axis=feature_axes))

    return Tensor._make(weight.data * x_hat + bias.data, (x, weight, bias), backward)


def reference_cross_entropy(logits, targets, ignore_index=None):
    """Cross-entropy in separate log-prob and prob arrays, copying probs in backward."""
    num_classes = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, num_classes)
    flat_targets = np.asarray(targets).reshape(-1)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
    n_valid = max(int(valid.sum()), 1)
    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[np.arange(flat_targets.size), safe_targets]
    loss = -(picked * valid).sum() / n_valid
    probs = np.exp(log_probs)
    logits_shape = logits.shape

    def backward(g):
        grad = probs.copy()
        grad[np.arange(flat_targets.size), safe_targets] -= 1.0
        grad *= valid[:, None]
        grad *= float(g) / n_valid
        return (grad.reshape(logits_shape),)

    return Tensor._make(np.float32(loss), (logits,), backward)


def without_rebuild(op):
    """``op`` as it was before its output carried a rebuild: consumers keep the array."""

    def kept_array(*args, **kwargs):
        out = op(*args, **kwargs)
        if all(out is not arg for arg in args):  # dropout off hands back its input
            out._rebuild = None
        return out

    return kept_array


# The ops whose outputs pass a rebuild on, so the attention node and the
# FFN's ``fc2`` keep no q, k, v or ``fc2`` input.
PROPAGATING = [
    (Tensor, "reshape"),
    (Tensor, "transpose"),
    (Tensor, "__add__"),
    (Tensor, "relu"),
    (RotaryEmbedding, "apply"),
    (F, "dropout"),
]


@pytest.fixture
def composed(monkeypatch):
    """Patch the reference in for the fused nodes, the rebuilds and cross-entropy.

    ``patch(arrays=True)`` patches in only the ops that pass a rebuild on
    as they were before: with them the attention node keeps q, k and v and
    ``fc2`` keeps its input.  ``patch(kept=True)`` patches in only the
    fused attention and SwiGLU nodes as they were before their backwards
    recomputed: attention keeping its probabilities and q, k and v,
    SwiGLU keeping ``gate`` and ``up``.
    """

    def patch(kept=False, arrays=False):
        if arrays:
            for owner, name in PROPAGATING:
                monkeypatch.setattr(owner, name, without_rebuild(getattr(owner, name)))
            return
        if kept:
            monkeypatch.setattr(attention, "_attention", reference_kept_attention)
            monkeypatch.setattr(F, "swiglu", reference_kept_swiglu)
            return
        monkeypatch.setattr(MultiHeadAttention, "forward", reference_attention_forward)
        monkeypatch.setattr(RotaryEmbedding, "apply", reference_rope_apply)
        monkeypatch.setattr(SwiGLU, "forward", reference_swiglu_forward)
        monkeypatch.setattr(F, "rms_norm", reference_rms_norm)
        monkeypatch.setattr(F, "layer_norm", reference_layer_norm)
        monkeypatch.setattr(F, "cross_entropy", reference_cross_entropy)

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


def key_pad_mask_with_an_empty_row(batch, q_len, k_len, rng):
    """TIGER's ``(B, 1, 1, S)`` key mask, with one row masking every key."""
    mask = key_pad_mask(batch, q_len, k_len, rng)
    mask[1] = True
    return mask


CASES = {
    "causal_self_attention_with_rope": dict(
        seed=1, rope=True, dropout=0.0, context_len=0,
        mask=lambda b, q, k, rng: causal_mask(q, k),
    ),
    "causal_self_attention_with_dropout_0.1": dict(
        seed=5, rope=True, dropout=0.1, context_len=0,
        mask=lambda b, q, k, rng: causal_mask(q, k),
    ),
    "cross_attention_with_key_pad_mask": dict(
        seed=2, rope=False, dropout=0.0, context_len=5, mask=key_pad_mask,
    ),
    "cross_attention_with_an_empty_key_row_and_dropout_0.1": dict(
        seed=6, rope=False, dropout=0.1, context_len=5, mask=key_pad_mask_with_an_empty_row,
    ),
    "self_attention_with_an_empty_key_row": dict(
        seed=7, rope=False, dropout=0.0, context_len=0, mask=key_pad_mask_with_an_empty_row,
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_recomputed_probabilities_match_the_node_that_kept_them(name, composed):
    recomputed_out, recomputed_grads = run_attention(CASES[name])
    composed(kept=True)
    kept_out, kept_grads = run_attention(CASES[name])
    assert np.array_equal(recomputed_out, kept_out)
    assert len(recomputed_grads) == len(kept_grads) == 5 + bool(CASES[name]["context_len"])
    for recomputed, kept in zip(recomputed_grads, kept_grads):
        assert recomputed is not None and np.array_equal(recomputed, kept)


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
    composed(arrays=True)
    assert fused == train()
    composed(kept=True)
    assert fused == train()
    composed()
    assert fused == train()


def test_swiglu_is_bit_identical_to_the_composition(composed):
    rng = np.random.default_rng(11)
    module = SwiGLU(16, 24, np.random.default_rng(12))
    data = rng.standard_normal((3, 5, 16)).astype(np.float32)
    upstream = rng.standard_normal((3, 5, 16)).astype(np.float32)
    results = []
    for patch in (lambda: None, lambda: composed(kept=True), composed):
        patch()
        module.zero_grad()
        x = Tensor(data, requires_grad=True)
        out = module(x)
        (out * upstream).sum().backward()
        results.append([out.data, x.grad] + [p.grad for p in module.parameters()])
    for fused, kept, reference in zip(*results):
        assert np.array_equal(fused, kept) and np.array_equal(fused, reference)


@pytest.mark.parametrize("consumer", ["down_proj", "mul"])
def test_swiglu_over_rebuilt_gate_and_up_runs_each_gemm_once(consumer, composed, monkeypatch):
    """Gate and up rebuild from the norm; each backward rebuilds them once.

    ``down_proj``'s backward rebuilds the SwiGLU output and leaves gate and
    up for the SwiGLU backward; with no GEMM consumer that backward rebuilds
    them itself.  Either way the norm's rebuild is asked for four times: once
    per gate and up GEMM rebuild, once per ``gate_proj`` and ``up_proj``
    backward (the node that kept gate and up asked for those two only).  It
    computes one read-only array and hands that to every caller.
    """
    rng = np.random.default_rng(17)
    norm, module = RMSNorm(16), SwiGLU(16, 24, np.random.default_rng(18))
    norm.weight.data = rng.standard_normal(16).astype(np.float32)
    data = rng.standard_normal((3, 5, 16)).astype(np.float32)
    weights = rng.standard_normal((3, 5, 24)).astype(np.float32)
    upstream = rng.standard_normal((3, 5, 16 if consumer == "down_proj" else 24))
    rms_norm = F.rms_norm
    rebuilds = []

    def counted_rms_norm(x, weight, eps=1e-6):
        out = rms_norm(x, weight, eps)
        rebuild = out._rebuild

        def counted():
            rebuilds.append(rebuild())
            return rebuilds[-1]

        out._rebuild = counted
        return out

    monkeypatch.setattr(F, "rms_norm", counted_rms_norm)
    results = []
    for kept in (False, True):
        if kept:
            composed(kept=True)
        rebuilds.clear()
        norm.zero_grad()
        module.zero_grad()
        x = Tensor(data, requires_grad=True)
        hidden = norm(x)
        act = F.swiglu(module.gate_proj(hidden), module.up_proj(hidden))
        out = module.down_proj(act) if consumer == "down_proj" else act * weights
        (out * upstream.astype(np.float32)).sum().backward()
        results.append([out.data, x.grad] + [p.grad for p in norm.parameters()]
                       + [p.grad for p in module.parameters() if p.grad is not None])
        assert len(rebuilds) == (2 if kept else 4)
        assert all(array is rebuilds[0] and not array.flags.writeable for array in rebuilds)
    for recomputed, kept in zip(*results):
        assert np.array_equal(recomputed, kept)


def rms_norm_then_linear(rng, shape):
    return [RMSNorm(shape[-1]), Linear(shape[-1], 12, rng=rng)]


def layer_norm_then_linear(rng, shape):
    norm = LayerNorm(shape[-1])
    norm.weight.data = rng.standard_normal(shape[-1]).astype(np.float32)
    norm.bias.data = rng.standard_normal(shape[-1]).astype(np.float32)
    return [norm, Linear(shape[-1], 12, rng=rng)]


def swiglu_then_down_proj(rng, shape):
    return [SwiGLU(shape[-1], 24, rng)]


def layer_norm_then_pointwise_ffn(rng, shape):
    """``fc2`` over ``dropout(relu(fc1(norm) + bias))``: a rebuild through bias, relu, dropout."""
    return [layer_norm_then_linear(rng, shape)[0], PointwiseFeedForward(shape[-1], 24, 0.1, rng)]


REBUILT = {
    "rms_norm->linear": rms_norm_then_linear,
    "layer_norm->linear": layer_norm_then_linear,
    "layer_norm->pointwise_ffn": layer_norm_then_pointwise_ffn,
    "swiglu->down_proj": swiglu_then_down_proj,
}


def chain_gradients(build, shape, side_use):
    """Output and every gradient of ``build``'s modules applied in turn.

    ``side_use`` also feeds the first module's output to a ``*`` node, a
    consumer that keeps the array rather than a rebuild.
    """
    rng = np.random.default_rng(13)
    modules = build(np.random.default_rng(14), shape)
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    hidden = modules[0](x)
    out = hidden
    for module in modules[1:]:
        out = module(out)
    loss = (out * rng.standard_normal(out.shape).astype(np.float32)).sum()
    if side_use:
        loss = loss + (hidden * rng.standard_normal(hidden.shape).astype(np.float32)).sum()
    loss.backward()
    grads = [x.grad] + [p.grad for module in modules for p in module.parameters()]
    return out.data, grads


@pytest.mark.parametrize("side_use", [False, True], ids=["gemm_only", "also_mul"])
@pytest.mark.parametrize("shape", [(3, 5, 16), (7, 16)], ids=["folded", "two_dim"])
@pytest.mark.parametrize("name", sorted(REBUILT))
def test_rebuilt_gemm_inputs_give_bit_identical_gradients(name, shape, side_use, composed):
    rebuilt_out, rebuilt_grads = chain_gradients(REBUILT[name], shape, side_use)
    composed()
    reference_out, reference_grads = chain_gradients(REBUILT[name], shape, side_use)
    assert np.array_equal(rebuilt_out, reference_out)
    assert len(rebuilt_grads) == len(reference_grads)
    for rebuilt, reference in zip(rebuilt_grads, reference_grads):
        assert rebuilt is not None and np.array_equal(rebuilt, reference)


@pytest.mark.parametrize("ignore_index", [None, -100])
def test_in_place_cross_entropy_is_bit_identical(ignore_index, composed):
    rng = np.random.default_rng(15)
    data = (rng.standard_normal((4, 6, 9)) * 3).astype(np.float32)
    targets = rng.integers(0, 9, size=(4, 6))
    if ignore_index is not None:
        targets[rng.random((4, 6)) < 0.3] = ignore_index
    results = []
    for patch in (lambda: None, composed):
        patch()
        logits = Tensor(data, requires_grad=True)
        loss = F.cross_entropy(logits * 1.0, targets, ignore_index=ignore_index)
        loss.backward(np.float32(0.7))
        results.append((loss.data, logits.grad))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_copies_and_pickles_drop_the_rebuild():
    x = Tensor(np.random.default_rng(16).standard_normal((2, 8)).astype(np.float32),
               requires_grad=True)
    out = RMSNorm(8)(x)
    assert out._rebuild is not None
    assert np.array_equal(out._rebuild(), out.data)
    for clone in (copy.deepcopy(out), copy.copy(out), pickle.loads(pickle.dumps(out))):
        assert clone._rebuild is None and clone._node is None
        assert np.array_equal(clone.data, out.data)


def test_no_grad_outputs_carry_no_rebuild():
    x = Tensor(np.ones((2, 8), dtype=np.float32), requires_grad=True)
    with no_grad():
        assert RMSNorm(8)(x)._rebuild is None


def norm_output(shape=(2, 6, 8)):
    """A grad-requiring RMSNorm output: the root every rebuild chain starts from."""
    rng = np.random.default_rng(19)
    norm = RMSNorm(shape[-1])
    norm.weight.data = rng.standard_normal(shape[-1]).astype(np.float32)
    return norm(Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True))


def heads(t):
    return t.reshape(2, 6, 2, 4).transpose(0, 2, 1, 3)


def bias():
    return Parameter(np.random.default_rng(20).standard_normal(8).astype(np.float32))


PROPAGATED = {
    "reshape": lambda t: t.reshape(2, 6, 2, 4),
    "transpose": lambda t: t.transpose(0, 2, 1),
    "head_split": heads,
    "rope": lambda t: RotaryEmbedding(4, max_positions=8).apply(heads(t)),
    "leaf_add": lambda t: t + bias(),
    "relu": lambda t: t.relu(),
    "dropout": lambda t: F.dropout(t, 0.3, np.random.default_rng(21), True),
    "linear_bias_relu_dropout": lambda t: F.dropout(
        Linear(8, 12, rng=np.random.default_rng(22))(t).relu(), 0.3,
        np.random.default_rng(23), True,
    ),
}


@pytest.mark.parametrize("name", sorted(PROPAGATED))
def test_propagated_rebuilds_return_the_forwards_bits(name):
    """Each op that passes a rebuild on rebuilds its output's bits and layout."""
    out = PROPAGATED[name](norm_output())
    assert out._rebuild is not None
    rebuilt = out._rebuild()
    assert np.array_equal(rebuilt, out.data)
    assert rebuilt.shape == out.shape and rebuilt.strides == out.data.strides


@pytest.mark.parametrize("norm", [RMSNorm, LayerNorm])
def test_a_norm_shares_one_read_only_rebuild_until_its_backward(norm):
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((3, 8)).astype(np.float32), requires_grad=True)
    out = norm(8)(x)
    first = out._rebuild()
    assert out._rebuild() is first and np.array_equal(first, out.data)
    with pytest.raises(ValueError):
        first += 1.0
    rebuilt = weakref.ref(first)
    del first
    (out * rng.standard_normal(out.shape).astype(np.float32)).sum().backward()
    assert rebuilt() is None


def test_only_a_parameter_operand_passes_a_rebuild_through_add():
    hidden = norm_output()
    constant = Tensor(np.ones(8, dtype=np.float32))
    assert (hidden + hidden)._rebuild is None
    assert (hidden + constant)._rebuild is None
    assert (hidden * 1.0 + bias())._rebuild is None  # the ``*`` output has no rebuild


def traced_step_peak(loss_fn, optimizer):
    """``tracemalloc``'s peak over one forward, backward and optimiser step."""
    tracemalloc.start()
    try:
        optimizer.zero_grad()
        loss = loss_fn()
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
    SwiGLU and ``bool`` dropout masks read 58 MB; rebuilding the norm and
    SwiGLU outputs in their GEMMs' backwards and cross-entropy in one
    buffer read 40.5 MB; recomputing the attention probabilities and
    SwiGLU's gate and up in their backwards read 23.0 MB (32.8 MB with
    the attention half alone; 21.8 MB once this helper dropped the last
    gradients before the forward, as ``train_epochs`` does); rebuilding
    q, k and v through the head split and RoPE read 15.8 MB.  The bound
    is that plus 10 %.
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
    assert peak < 17.4 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_fixture_shaped_tiger_step_peak_memory():
    """One ledger-fixture-shaped TIGER training step (413 items, batch 64).

    Tensor-linked parents, ``__add__`` closures holding whole tensors and
    float32 dropout masks read a 76.7 MB traced peak; node links and
    ``bool`` masks read 35.6 MB; rebuilding the LayerNorm outputs in their
    GEMMs' backwards and cross-entropy in one buffer read 30.8 MB;
    recomputing the attention probabilities in their backward read
    29.2 MB; rebuilding q, k, v and the FFN's ``fc2`` input (through the
    head split, the bias, ReLU and dropout) read 20.8 MB.  The bound is
    that plus 10 %.
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
    assert peak < 23.9 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


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


def test_rebuilt_outputs_and_logits_are_dead_once_the_loss_exists(monkeypatch):
    """The RMSNorm and SwiGLU outputs and the logits die in the forward.

    Their GEMMs keep rebuilds, not arrays, and cross-entropy keeps only its
    own buffer, so nothing holds them by the time the loss exists.
    """
    config = LMConfig(vocab_size=40, dim=32, num_layers=2, num_heads=4, ffn_hidden=48,
                      max_seq_len=16, seed=0)
    model = TinyLlama(config)
    model.train()
    watched = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            watched.setdefault(name, weakref.ref(out.data))
            return out

        return wrapper

    monkeypatch.setattr(F, "rms_norm", recording("RMSNorm output", F.rms_norm))
    monkeypatch.setattr(F, "swiglu", recording("SwiGLU output", F.swiglu))
    monkeypatch.setattr(model, "forward", recording("logits", model.forward))
    batch = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 9))
    loss = F.cross_entropy(model(batch[:, :-1]), batch[:, 1:])
    assert {name: ref() is None for name, ref in watched.items()} == {
        "RMSNorm output": True,
        "SwiGLU output": True,
        "logits": True,
    }
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_probabilities_gate_and_up_are_dead_once_the_loss_exists(monkeypatch, composed, dropout):
    """The attention probabilities and SwiGLU's gate and up die in the forward.

    Their backwards recompute them from what the nodes keep (q, k, v and
    the softmax's row max and sum; the gate and up GEMMs' rebuilds), so
    nothing holds them by the time the loss exists.  The nodes that kept
    them, patched in, hold all three.
    """
    config = LMConfig(vocab_size=40, dim=32, num_layers=2, num_heads=4, ffn_hidden=48,
                      max_seq_len=16, dropout=dropout, seed=0)
    batch = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 9))
    softmax_rows = attention._softmax_rows
    alive = {}
    for kept in (False, True):
        if kept:
            composed(kept=True)
        swiglu = F.swiglu
        watched = {}

        def recording_softmax_rows(scores, stats=None):
            out = softmax_rows(scores, stats)
            watched.setdefault("probabilities", weakref.ref(out[0]))
            return out

        def recording_swiglu(gate, up):
            watched.setdefault("gate", weakref.ref(gate.data))
            watched.setdefault("up", weakref.ref(up.data))
            return swiglu(gate, up)

        monkeypatch.setattr(attention, "_softmax_rows", recording_softmax_rows)
        monkeypatch.setattr(F, "swiglu", recording_swiglu)
        model = TinyLlama(config)
        model.train()
        loss = F.cross_entropy(model(batch[:, :-1]), batch[:, 1:])
        alive[kept] = {name: ref() is not None for name, ref in watched.items()}
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())
    assert alive == {
        False: {"probabilities": False, "gate": False, "up": False},
        True: {"probabilities": True, "gate": True, "up": True},
    }


def owner(array):
    """The array that owns ``array``'s memory (a view's ``base``)."""
    return array if array.base is None else array.base


def watch_attention_operands(monkeypatch):
    """Record, per attention node in forward order, weak references to q, k and v."""
    calls = []
    attend = attention._attention

    def recording_attention(q, k, v, attn_mask, dropout):
        calls.append({name: weakref.ref(owner(t.data)) for name, t in zip("qkv", (q, k, v))})
        return attend(q, k, v, attn_mask, dropout)

    monkeypatch.setattr(attention, "_attention", recording_attention)
    return calls


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_lm_q_k_v_are_dead_once_the_loss_exists(monkeypatch, composed, dropout):
    """RoPE'd q and k and the head-split v of an LM block die in the forward.

    The attention node keeps their rebuilds (the RMSNorm's, through the
    projection, the head split and RoPE).  With the ops that pass a rebuild
    on patched back, the node keeps the arrays.
    """
    config = LMConfig(vocab_size=40, dim=32, num_layers=2, num_heads=4, ffn_hidden=48,
                      max_seq_len=16, dropout=dropout, seed=0)
    batch = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 9))
    calls = watch_attention_operands(monkeypatch)
    alive = {}
    for arrays in (False, True):
        if arrays:
            composed(arrays=True)
        calls.clear()
        model = TinyLlama(config)
        model.train()
        loss = F.cross_entropy(model(batch[:, :-1]), batch[:, 1:])
        assert len(calls) == config.num_layers
        alive[arrays] = {name: ref() is not None for name, ref in calls[0].items()}
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())
    assert alive == {False: dict.fromkeys("qkv", False), True: dict.fromkeys("qkv", True)}


def tiny_tiger(dropout):
    index_set = build_random_index_set(30, 3, 6, np.random.default_rng(9))
    model = TIGER(index_set, TIGERConfig(dim=32, num_heads=4, max_history=5, dropout=dropout,
                                         seed=9))
    rng = np.random.default_rng(10)
    source = model._pad_histories(
        [list(rng.integers(0, 30, size=rng.integers(1, 6))) for _ in range(6)]
    )
    targets = np.array([model.space.item_tokens(int(i)) for i in rng.integers(0, 30, 6)])
    decoder_input = np.concatenate([np.full((6, 1), BOS_ID), targets[:, :-1]], axis=1)
    model.train()
    return model, lambda: F.cross_entropy(model(source, decoder_input), targets)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_tiger_q_k_v_and_fc2_inputs_are_dead_once_the_loss_exists(monkeypatch, composed,
                                                                  dropout):
    """TIGER's attention operands and FFN hidden activations die in the forward.

    q, k and v of the encoder's self-attention and the decoder's self- and
    cross-attention (k and v projected from the encoder's final LayerNorm
    output), and the ``fc2`` input (``dropout(relu(fc1(norm) + bias))``):
    their consumers keep rebuilds.  With the ops that pass a rebuild on
    patched back, the consumers keep the arrays.
    """
    calls = watch_attention_operands(monkeypatch)
    alive = {}
    for arrays in (False, True):
        if arrays:
            composed(arrays=True)
        calls.clear()
        model, loss_fn = tiny_tiger(dropout)
        watched = {}
        for label, layer in (("encoder", model.encoder_layers[0]),
                             ("decoder", model.decoder_layers[0])):
            forward = layer.ffn.fc2.forward

            def recording_fc2(x, forward=forward, label=label):
                watched.setdefault(f"{label} fc2 input", weakref.ref(owner(x.data)))
                return forward(x)

            monkeypatch.setattr(layer.ffn.fc2, "forward", recording_fc2)
        loss = loss_fn()
        encoder_layers = len(model.encoder_layers)
        assert len(calls) == encoder_layers + 2 * len(model.decoder_layers)
        for label, call in (("encoder self", calls[0]),
                            ("decoder self", calls[encoder_layers]),
                            ("decoder cross", calls[encoder_layers + 1])):
            watched.update({f"{label} {name}": ref for name, ref in call.items()})
        alive[arrays] = {name: ref() is not None for name, ref in watched.items()}
        assert len(alive[arrays]) == 11
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())
    assert not any(alive[False].values()), alive[False]
    assert all(alive[True].values()), alive[True]


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
