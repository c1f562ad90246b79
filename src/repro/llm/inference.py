"""The no-grad, KV-cached inference forward of :class:`~repro.llm.TinyLlama`.

Everything decode-shaped — prompt prefill, beam steps, forced-token
flushes, speculative windows, greedy generation — runs through
:func:`cached_hidden_states`: plain ndarrays from the embedding lookup to
the final norm, scratch reused across layers (and, with a
:class:`~repro.tensor.StepWorkspace`, across steps), no autograd
``Tensor`` anywhere.  The autograd modules in :mod:`repro.tensor.attention`
and :mod:`repro.llm.model` are the training graph; this module computes
the same function from the same parameters (``tests/test_inference_forward.py``
holds the two together to ``rtol=1e-5``).

What makes it GEMM-bound rather than temporary-bound:

* **Once per forward, not per layer** — the causal | pad | tree mask
  becomes one additive float bias (``None`` when nothing is masked), and
  the RoPE cos/sin rows are gathered and laid out once.
* **Fused projections** — one QKV GEMM (fp32/fp16/int8, memoized on the
  attention module) and one gate|up GEMM (memoized on the SwiGLU) per
  layer; RoPE rotates the q|k slab of the QKV buffer in place, with the
  ``1/sqrt(head_dim)`` score scale folded into the query's cos/sin.
* **Key-major scores** — attention scores live as ``(key, request, head,
  query)``, so the softmax reduces over the *leading* axis: every max,
  sum and divide runs over long contiguous rows instead of thousands of
  70-element ones.  BLAS writes straight into that layout (and reads the
  queries straight out of the QKV buffer) through strided views.
* **GEMM-shaped beam attention** — with a fanned
  :class:`~repro.tensor.BeamKVCache`, the ``K`` beams of a request share
  its prompt K/V, so their queries stack into one ``(K*T, head_dim)``
  operand: ``B*H`` GEMMs against the prompt instead of ``B*H*K`` GEMVs.
  Only the per-beam suffix (at most ``num_levels - 1`` columns) stays a
  batch of tiny products.
* **Last-position-only final block** — callers that keep just the last
  position (``last_only=True``) still get K/V for every new position in
  every layer cache, but the final block runs attention, ``out_proj`` and
  the FFN for the last position alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..tensor import (
    BeamKVCache,
    KVCache,
    MultiHeadAttention,
    RMSNorm,
    RotaryEmbedding,
    StepWorkspace,
    fp16_activations,
    int8_matmul,
    validate_precision,
)

if TYPE_CHECKING:
    from .model import TinyLlama

__all__ = ["cached_hidden_states"]

_MASKED = np.float32(-1e9)

Scratch = Callable[[str, tuple[int, ...]], np.ndarray]


def cached_hidden_states(
    model: "TinyLlama",
    tokens: np.ndarray,
    caches: list[KVCache],
    mask: np.ndarray,
    rope_offset: int | np.ndarray,
    workspace: StepWorkspace | None = None,
    precision: str = "fp32",
    last_only: bool = False,
) -> np.ndarray:
    """Final-norm hidden states of ``tokens`` through ``caches`` (no grad).

    ``mask`` (boolean, True disallows; ``(T, key_len)`` or ``(rows, 1, T,
    key_len)``) and ``rope_offset`` (int, per-row ``(rows,)`` or absolute
    ``(rows, T)``) are what :meth:`TinyLlama.hidden_states` derives from
    its padding/tree arguments.  Every layer cache receives the new
    positions' K/V.  Returns a fresh ``(rows, T, dim)`` array — ``(rows, 1,
    dim)`` with ``last_only``.  Without a ``workspace`` the scratch lives
    for this call only (still shared by all layers).
    """
    validate_precision(precision)
    scratch = (workspace if workspace is not None else StepWorkspace()).take
    rows, seq_len = tokens.shape
    groups = caches[0].beams if isinstance(caches[0], BeamKVCache) else 1
    attention = model.blocks[0].attention
    heads, head_dim, dim = attention.num_heads, attention.head_dim, attention.dim
    hidden = model.blocks[0].feed_forward.gate_proj.out_features
    slab_shape = (rows, seq_len, 2, heads, 2, head_dim // 2)

    bias = _additive_bias(mask, rows, seq_len, groups)
    cos, sin = _rope_tables(model.rope, rope_offset, seq_len, heads)
    x = model.tok_embeddings.weight.data[tokens]  # (rows, T, dim): ours to update in place

    def buffer(name: str, width: int) -> np.ndarray:
        """Scratch holding one ``width``-vector per position ``x`` currently has."""
        return scratch(name, x.shape[:2] + (width,))

    last_block = len(model.blocks) - 1
    for index, (block, cache) in enumerate(zip(model.blocks, caches)):
        attention, ffn = block.attention, block.feed_forward
        normed = _rms_norm(x, block.attn_norm, buffer("normed", dim))
        qkv = _project_qkv(normed, attention, precision, buffer("qkv", 3 * dim))
        qkv = qkv.reshape(rows, seq_len, 3, heads, head_dim)
        _rotate(qkv[:, :, :2].reshape(slab_shape), cos, sin, scratch("rope_tmp", slab_shape))
        cache.append(qkv[:, :, 1].transpose(0, 2, 1, 3), qkv[:, :, 2].transpose(0, 2, 1, 3))
        queries = qkv[:, :, 0]
        if last_only and index == last_block:
            # K/V above covered every new position (the caches need
            # them); from here on only the last position is anyone's input.
            queries, x = queries[:, -1:], x[:, -1:]
            if bias is not None:
                bias = bias[..., -1:]
        context = _attend(queries, cache, bias, scratch)
        x += _linear(context, attention.out_proj.weight.data, buffer("proj", dim))

        normed = _rms_norm(x, block.ffn_norm, buffer("normed", dim))
        gate_up = _linear(normed, ffn.fused_gate_up_weight(), buffer("gate_up", 2 * hidden))
        act = _swiglu(gate_up[..., :hidden], gate_up[..., hidden:], buffer("ffn_act", hidden))
        x += _linear(act, ffn.down_proj.weight.data, buffer("proj", dim))
    return _rms_norm(x, model.final_norm, np.empty(x.shape, dtype=np.float32))


# ----------------------------------------------------------------------
# Once per forward
# ----------------------------------------------------------------------
def _additive_bias(mask: np.ndarray, rows: int, seq_len: int, groups: int) -> np.ndarray | None:
    """The attention mask as a key-major additive bias, or ``None``.

    Shape ``(key_len, B, 1, G, T)`` with ``rows = B * G`` (``G`` beams per
    request; 1 unless the cache is fanned) — it broadcasts over heads onto
    the ``(key_len, B, H, G*T)`` score block of :func:`_attend`.  Masked
    entries carry ``-1e9``: a fully masked query (a pad position) still
    softmaxes to finite values, so its K/V never poisons a real row.
    """
    if not mask.any():
        return None
    if mask.ndim == 4:
        mask = mask[:, 0]
    key_len = mask.shape[-1]
    key_major = np.broadcast_to(mask, (rows, seq_len, key_len)).transpose(2, 0, 1)
    bias = np.empty(key_major.shape, dtype=np.float32)
    np.multiply(key_major, _MASKED, out=bias)
    return bias.reshape(key_len, rows // groups, 1, groups, seq_len)


def _rope_tables(
    rope: RotaryEmbedding, offset: int | np.ndarray, seq_len: int, heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """cos / signed-sin tables laid out like the q|k slab of the QKV buffer.

    Both are ``(R, T, 2, H, 2, half)`` (``R`` is 1 when every row shares
    its positions): axis 2 is q|k, the second-to-last axis the two halves
    of a head.  With ``x1, x2`` a head's halves, RoPE is ``(x1*cos -
    x2*sin, x2*cos + x1*sin)`` — elementwise ``slab*cos +
    swapped_halves(slab)*signed_sin`` with ``signed_sin = (-sin, +sin)``.
    The query half of both tables is pre-multiplied by ``1/sqrt(head_dim)``
    so attention scores come out of the GEMM already scaled.
    """
    offset = np.asarray(offset, dtype=np.int64)
    if offset.ndim < 2:
        offset = offset.reshape(-1, 1) + np.arange(seq_len)
    positions = np.maximum(offset, 0)  # pad positions clamp to 0; they are masked anyway
    half = rope.head_dim // 2
    shape = positions.shape + (2, heads, 2, half)
    cos = np.empty(shape, dtype=np.float32)
    sin = np.empty(shape, dtype=np.float32)
    cos[...] = rope.cos[positions][:, :, None, None, None, :]
    gathered = rope.sin[positions][:, :, None, None, :]
    np.negative(gathered, out=sin[..., 0, :])
    sin[..., 1, :] = gathered
    scale = np.float32(1.0 / np.sqrt(rope.head_dim))
    cos[:, :, 0] *= scale
    sin[:, :, 0] *= scale
    return cos, sin


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def _rms_norm(x: np.ndarray, norm: RMSNorm, out: np.ndarray) -> np.ndarray:
    """``norm(x)`` written into ``out`` (same operation order as ``F.rms_norm``)."""
    np.multiply(x, x, out=out)
    inv_rms = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + norm.eps)
    np.multiply(x, inv_rms, out=out)
    out *= norm.weight.data
    return out


def _linear(x: np.ndarray, weight: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x @ weight`` as one folded GEMM, written into ``out``."""
    np.matmul(x.reshape(-1, x.shape[-1]), weight, out=out.reshape(-1, out.shape[-1]))
    return out


def _project_qkv(
    x: np.ndarray, attention: MultiHeadAttention, precision: str, out: np.ndarray
) -> np.ndarray:
    """The fused QKV projection of ``x`` at ``precision``, written into ``out``."""
    weight = attention.fused_qkv_weight(precision)
    if precision == "int8":
        int8_matmul(x.reshape(-1, x.shape[-1]), weight, out=out.reshape(-1, out.shape[-1]))
        return out
    return _linear(fp16_activations(x) if precision == "fp16" else x, weight, out)


def _rotate(slab: np.ndarray, cos: np.ndarray, sin: np.ndarray, tmp: np.ndarray) -> None:
    """RoPE the q|k slab in place (tables from :func:`_rope_tables`)."""
    np.multiply(slab[..., ::-1, :], sin, out=tmp)
    slab *= cos
    slab += tmp


def _swiglu(gate: np.ndarray, up: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``silu(gate) * up`` into ``out``: ``gate / (1 + exp(-gate)) * up``."""
    np.negative(gate, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(gate, out, out=out)
    out *= up
    return out


def _attend(
    queries: np.ndarray, cache: KVCache | BeamKVCache, bias: np.ndarray | None, scratch: Scratch
) -> np.ndarray:
    """Softmax attention of ``queries`` over everything in ``cache``.

    ``queries`` is ``(rows, Tq, H, Dh)`` — rotated, pre-scaled, usually a
    strided view into the QKV buffer; the new positions' K/V are already
    appended.  A request's ``G`` beams (``rows = B * G``; ``G = 1`` for
    unfanned caches) read the same prompt K/V, so their queries are one
    ``(G*Tq, Dh)`` GEMM operand per request and head.  Returns the merged
    heads ``(rows, Tq, H*Dh)`` in scratch.
    """
    if isinstance(cache, BeamKVCache):
        shared, groups = cache.prompt, cache.beams
        own = cache.suffix if cache.suffix.length else None
    else:
        shared, groups, own = cache, 1, None
    keys, values = shared.keys, shared.values  # (B, H, P, Dh)
    batch, heads, shared_len, head_dim = keys.shape
    q_len = queries.shape[1]
    width = groups * q_len
    own_len = own.length if own is not None else 0
    key_len = shared_len + own_len
    queries = queries.reshape(batch, width, heads, head_dim)

    # Key-major scores (key, B, H, G*Tq): the softmax below reduces over
    # the leading axis, i.e. over long contiguous rows — and a longer key
    # axis is a longer prefix of the same buffer, so sizing it to the
    # suffix's capacity lets every step of a decode reuse one allocation.
    spare = own.capacity - own_len if own is not None else 0
    scores = scratch("attn_scores", (key_len + spare, batch, heads, width))[:key_len]
    shared_scores = scores[:shared_len]
    np.matmul(keys, queries.transpose(0, 2, 3, 1), out=shared_scores.transpose(1, 2, 0, 3))
    if own is not None:
        # Per-beam suffix columns: B*H*G tiny (Tq, Dh) x (Dh, S) products.
        own_shape = (batch, groups, heads, own_len, head_dim)
        own_keys = own.keys.reshape(own_shape).transpose(0, 2, 1, 4, 3)  # (B, H, G, Dh, S)
        own_values = own.values.reshape(own_shape).transpose(0, 2, 1, 3, 4)  # (B, H, G, S, Dh)
        beam_queries = queries.reshape(batch, groups, q_len, heads, head_dim)
        own_scores = scores[shared_len:].reshape(own_len, batch, heads, groups, q_len)
        own_scores = own_scores.transpose(1, 2, 3, 4, 0)  # (B, H, G, Tq, S)
        np.matmul(beam_queries.transpose(0, 3, 1, 2, 4), own_keys, out=own_scores)

    if bias is not None:
        grouped = scores.reshape(key_len, batch, heads, groups, q_len)
        grouped += bias
    stat = scratch("attn_stat", (1, batch, heads, width))
    np.max(scores, axis=0, keepdims=True, out=stat)
    scores -= stat
    np.exp(scores, out=scores)
    np.sum(scores, axis=0, keepdims=True, out=stat)
    scores /= stat

    merged = scratch("attn_merged", (batch, width, heads, head_dim))
    np.matmul(shared_scores.transpose(1, 2, 3, 0), values, out=merged.transpose(0, 2, 1, 3))
    if own is not None:
        own_context = scratch("attn_own", (batch, heads, groups, q_len, head_dim))
        np.matmul(own_scores, own_values, out=own_context)
        by_beam = merged.reshape(batch, groups, q_len, heads, head_dim)
        by_beam += own_context.transpose(0, 2, 3, 1, 4)
    return merged.reshape(batch * groups, q_len, heads * head_dim)
