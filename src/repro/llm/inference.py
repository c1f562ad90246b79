"""The no-grad, KV-cached inference forwards: one ndarray kernel, two stacks.

Everything decode-shaped — prompt prefill, beam steps, forced-token
flushes, greedy generation — runs through :func:`cached_hidden_states`
(:class:`~repro.llm.TinyLlama`: RMSNorm, RoPE, SwiGLU) or
:func:`layer_stack_hidden_states` (the TIGER encoder and decoder:
LayerNorm, learned positions, ReLU FFN, cross-attention): plain ndarrays
from the embedding lookup to the final norm, scratch reused across layers
(and, with a :class:`~repro.tensor.StepWorkspace`, across steps), no
autograd ``Tensor`` anywhere.  Both stacks share the attention, the
projections and the mask/position geometry below.  The autograd modules in
:mod:`repro.tensor.attention`, :mod:`repro.llm.model` and
:mod:`repro.baselines.layers` are the training graph; this module computes
the same function from the same parameters (``tests/test_inference_forward.py``
holds the two together to ``rtol=1e-5``).

What makes it GEMM-bound rather than temporary-bound:

* **Once per forward, not per layer** — the causal | pad mask becomes
  one additive float bias (``None`` when nothing is masked), and the
  RoPE cos/sin rows are gathered and laid out once.
* **Fused projections** — one QKV GEMM (memoized on the attention
  module) and one gate|up GEMM (memoized on the SwiGLU) per layer; RoPE
  rotates the q|k slab of the QKV buffer in place, with the
  ``1/sqrt(head_dim)`` score scale folded into the query's cos/sin.
* **Key-major scores** — attention scores live as ``(key, request, head,
  query)``, so the softmax reduces over the *leading* axis: every max,
  sum and divide runs over long contiguous rows instead of thousands of
  70-element ones.  BLAS writes straight into that layout (and reads the
  queries straight out of the QKV buffer) through strided views.
* **GEMM-shaped beam attention** — with a fanned
  :class:`~repro.tensor.BeamKVCache`, the ``G`` live beams of a request
  share its prompt K/V, so their queries stack into one ``(G*T, head_dim)``
  operand: ``B*H`` GEMMs against the prompt instead of ``B*H*G`` GEMVs.
  The per-beam suffix (at most ``num_levels - 1`` columns) is two ``einsum``s.
* **Last-position-only final block** — callers that keep just the last
  position (``last_only=True``) still get K/V for every new position in
  every layer cache, but the final block runs attention, ``out_proj`` and
  the FFN for the last position alone.
* **Cross-attention K/V projected once** — per request and layer, as two
  views of one k|v GEMM (:class:`CrossBeamKVCache`) that every beam reads
  as the shared operand; a step forwards only new tokens.  The encoder
  attends over its own QKV buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..tensor import (
    BeamKVCache,
    KVCache,
    LayerNorm,
    MultiHeadAttention,
    RMSNorm,
    RotaryEmbedding,
    StepWorkspace,
    causal_mask,
)

if TYPE_CHECKING:
    from ..baselines.layers import TransformerEncoderLayer
    from .model import TinyLlama

__all__ = [
    "CrossBeamKVCache",
    "absolute_positions",
    "attention_geometry",
    "cached_hidden_states",
    "layer_stack_hidden_states",
]

_MASKED = np.float32(-1e9)

Scratch = Callable[[str, tuple[int, ...]], np.ndarray]


def cached_hidden_states(
    model: "TinyLlama",
    tokens: np.ndarray,
    caches: list[KVCache],
    mask: np.ndarray,
    rope_offset: int | np.ndarray,
    workspace: StepWorkspace | None = None,
    last_only: bool = False,
) -> np.ndarray:
    """Final-norm hidden states of ``tokens`` through ``caches`` (no grad).

    ``mask`` (boolean, True disallows; ``(T, key_len)`` or ``(rows, 1, T,
    key_len)``) and ``rope_offset`` (int or per-row ``(rows,)``) are what
    :meth:`TinyLlama.hidden_states` derives from its padding arguments.
    Every layer cache receives the new positions' K/V.  Returns a fresh
    ``(rows, T, dim)`` array — ``(rows, 1, dim)`` with ``last_only``.
    Without a ``workspace`` the scratch lives for this call only (still
    shared by all layers).
    """
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
        qkv = _linear(normed, attention.fused_qkv_weight(), buffer("qkv", 3 * dim))
        qkv = qkv.reshape(rows, seq_len, 3, heads, head_dim)
        _rotate(qkv[:, :, :2].reshape(slab_shape), cos, sin, scratch("rope_tmp", slab_shape))
        kv = _append(cache, qkv[:, :, 1].transpose(0, 2, 1, 3), qkv[:, :, 2].transpose(0, 2, 1, 3))
        queries = qkv[:, :, 0]
        if last_only and index == last_block:
            # K/V above covered every new position (the caches need
            # them); from here on only the last position is anyone's input.
            queries, x = queries[:, -1:], x[:, -1:]
            if bias is not None:
                bias = bias[..., -1:]
        context = _attend(queries, *kv, bias, scratch)
        x += _linear(context, attention.out_proj.weight.data, buffer("proj", dim))

        normed = _rms_norm(x, block.ffn_norm, buffer("normed", dim))
        gate_up = _linear(normed, ffn.fused_gate_up_weight(), buffer("gate_up", 2 * hidden))
        act = _swiglu(gate_up[..., :hidden], gate_up[..., hidden:], buffer("ffn_act", hidden))
        x += _linear(act, ffn.down_proj.weight.data, buffer("proj", dim))
    return _rms_norm(x, model.final_norm, np.empty(x.shape, dtype=np.float32))


class CrossBeamKVCache(BeamKVCache):
    """A decoder layer's cache in an encoder-decoder: its own K/V and the memory's.

    The inherited regions are the layer's *self-attention* K/V — what the
    beam stepper fans out, reorders and reads lengths from: BOS is the
    shared prompt column, every later token a per-beam suffix column.
    ``memory_keys`` / ``memory_values`` ``(B, H, S, Dh)`` are the encoder
    memory's cross-attention K/V: two views of one projection that
    :meth:`project_memory` writes once and every beam of a request reads.
    ``memory_bias`` is their source-pad additive bias (``None`` if unpadded).
    """

    memory_keys: np.ndarray | None = None
    memory_values: np.ndarray | None = None
    memory_bias: np.ndarray | None = None

    def project_memory(
        self, attention: MultiHeadAttention, memory: np.ndarray, pad_mask: np.ndarray
    ) -> None:
        """Project encoder ``memory`` ``(B, S, dim)`` to this layer's cross K/V.

        One GEMM over the ``B*S`` memory rows and the fused QKV weight's k|v
        columns.  ``pad_mask`` is the key padding mask ``(B, 1, 1, S)``.
        """
        batch, source_len, dim = memory.shape
        kv = np.matmul(memory.reshape(-1, dim), attention.fused_qkv_weight()[:, dim:])
        kv = kv.reshape(batch, source_len, 2, attention.num_heads, attention.head_dim)
        self.memory_keys = kv[:, :, 0].transpose(0, 2, 1, 3)
        self.memory_values = kv[:, :, 1].transpose(0, 2, 1, 3)
        self.memory_bias = _additive_bias(pad_mask, batch, 1, 1)


def layer_stack_hidden_states(
    layers: Sequence["TransformerEncoderLayer"],
    final_norm: LayerNorm,
    x: np.ndarray,
    caches: Sequence[CrossBeamKVCache] | None,
    mask: np.ndarray,
    workspace: StepWorkspace | None = None,
    last_only: bool = False,
) -> np.ndarray:
    """Final-norm hidden states of a pre-LayerNorm layer stack (no grad).

    ``x`` is the stack's input — token plus learned position embeddings,
    ``(rows, T, dim)``, updated in place — and ``mask`` the boolean
    self-attention mask (True disallows).  With ``caches`` this is the
    decoder: every cache receives the new positions' K/V and its layer also
    cross-attends the memory K/V it holds.  With ``caches=None`` it is the
    encoder: each layer attends over its own QKV buffer.  ``workspace`` and
    ``last_only`` are as in :func:`cached_hidden_states`.
    """
    scratch = (workspace if workspace is not None else StepWorkspace()).take
    rows, seq_len, dim = x.shape
    groups = caches[0].beams if caches else 1
    attention = layers[0].self_attn
    heads, head_dim = attention.num_heads, attention.head_dim
    scale = np.float32(1.0 / np.sqrt(head_dim))
    bias = _additive_bias(mask, rows, seq_len, groups)

    def buffer(name: str, width: int) -> np.ndarray:
        """Scratch holding one ``width``-vector per position ``x`` currently has."""
        return scratch(name, x.shape[:2] + (width,))

    last_layer = len(layers) - 1
    for index, layer in enumerate(layers):
        attention = layer.self_attn
        normed = _layer_norm(x, layer.self_norm, buffer("normed", dim))
        qkv = _linear(normed, attention.fused_qkv_weight(), buffer("qkv", 3 * dim))
        qkv = qkv.reshape(rows, seq_len, 3, heads, head_dim)
        queries = qkv[:, :, 0]
        queries *= scale  # scores leave the GEMM already scaled
        keys, values = qkv[:, :, 1].transpose(0, 2, 1, 3), qkv[:, :, 2].transpose(0, 2, 1, 3)
        suffix = None
        if caches is not None:
            keys, values, suffix = _append(caches[index], keys, values)
        if last_only and index == last_layer:
            queries, x = queries[:, -1:], x[:, -1:]
            if bias is not None:
                bias = bias[..., -1:]
        context = _attend(queries, keys, values, suffix, bias, scratch)
        x += _linear(context, attention.out_proj.weight.data, buffer("proj", dim))

        if caches is not None:
            cache, attention = caches[index], layer.cross_attn
            normed = _layer_norm(x, layer.cross_norm, buffer("normed", dim))
            query_weight = attention.fused_qkv_weight()[:, :dim]
            queries = _linear(normed, query_weight, buffer("cross_q", dim))
            queries *= scale
            queries = queries.reshape(rows, -1, heads, head_dim)
            context = _attend(queries, cache.memory_keys, cache.memory_values, None,
                              cache.memory_bias, scratch)
            x += _linear(context, attention.out_proj.weight.data, buffer("proj", dim))

        fc1, fc2 = layer.ffn.fc1, layer.ffn.fc2
        normed = _layer_norm(x, layer.ffn_norm, buffer("normed", dim))
        act = _linear(normed, fc1.weight.data, buffer("ffn_act", fc1.out_features))
        act += fc1.bias.data
        np.maximum(act, 0.0, out=act)
        x += _linear(act, fc2.weight.data, buffer("proj", dim))
        x += fc2.bias.data
    return _layer_norm(x, final_norm, np.empty(x.shape, dtype=np.float32))


# ----------------------------------------------------------------------
# Once per forward
# ----------------------------------------------------------------------
def attention_geometry(
    seq_len: int, offset: int, pad_columns: np.ndarray | None = None
) -> tuple[np.ndarray, int | np.ndarray]:
    """Attention mask and position offset of ``seq_len`` new tokens.

    ``offset`` is the number of key columns already cached; ``pad_columns``
    is documented on :meth:`repro.llm.TinyLlama.hidden_states`.  Returns
    the boolean mask (True disallows; ``(T, key_len)``, or ``(rows, 1, T,
    key_len)`` once a row carries pads) and the position of each row's
    first new token — an int, or a per-row ``(rows,)`` array (pads do not
    count).
    """
    key_len = offset + seq_len
    mask = causal_mask(seq_len, key_len, offset=offset)
    position: int | np.ndarray = offset
    if pad_columns is not None and np.any(pad_columns):
        pad_columns = np.asarray(pad_columns, dtype=bool)
        pad_keys = np.zeros((pad_columns.shape[0], key_len), dtype=bool)
        pad_keys[:, : pad_columns.shape[1]] = pad_columns
        mask = mask[None, None, :, :] | pad_keys[:, None, None, :]
        position = offset - pad_columns.sum(axis=1)
    return mask, position


def absolute_positions(offset: int | np.ndarray, seq_len: int) -> np.ndarray:
    """``(R, T)`` token positions from an :func:`attention_geometry` offset.

    ``R`` is 1 when every row shares its positions.  Pad positions (negative)
    clamp to 0; they are masked out of attention anyway.
    """
    positions = np.asarray(offset, dtype=np.int64).reshape(-1, 1) + np.arange(seq_len)
    return np.maximum(positions, 0)


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
    positions = absolute_positions(offset, seq_len)
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


def _layer_norm(x: np.ndarray, norm: LayerNorm, out: np.ndarray) -> np.ndarray:
    """``norm(x)`` written into ``out``.

    Row means and variances are BLAS dot products against a constant vector
    rather than ``mean(axis=-1)`` reductions (five times slower on rows this
    short); they differ from ``F.layer_norm`` in the last bit.
    """
    average = np.full(x.shape[-1], 1.0 / x.shape[-1], dtype=np.float32)
    np.subtract(x, np.matmul(x, average)[..., None], out=out)
    variance = np.einsum("...i,...i->...", out, out)[..., None] * average[0]
    out *= 1.0 / np.sqrt(variance + norm.eps)
    out *= norm.weight.data
    out += norm.bias.data
    return out


def _linear(x: np.ndarray, weight: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x @ weight`` as one folded GEMM, written into ``out``."""
    np.matmul(x.reshape(-1, x.shape[-1]), weight, out=out.reshape(-1, out.shape[-1]))
    return out


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


def _append(
    cache: KVCache | BeamKVCache, keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, KVCache | None]:
    """Append the new positions' K/V; return what :func:`_attend` reads of ``cache``."""
    cache.append(keys, values)
    if isinstance(cache, BeamKVCache):
        return cache.prompt.keys, cache.prompt.values, cache.suffix if cache.suffix.length else None
    return cache.keys, cache.values, None


def _attend(
    queries: np.ndarray, keys: np.ndarray, values: np.ndarray, suffix: KVCache | None,
    bias: np.ndarray | None, scratch: Scratch,
) -> np.ndarray:
    """Softmax attention of ``queries`` over ``keys``/``values`` and ``suffix``.

    ``queries`` is ``(rows, Tq, H, Dh)`` — rotated, pre-scaled, usually a
    strided view into the QKV buffer; the new positions' K/V are already in
    place.  ``keys``/``values`` ``(B, H, P, Dh)`` are shared by the ``G =
    rows / B`` beams of a request, so their queries are one ``(G*Tq, Dh)``
    GEMM operand per request and head.  ``suffix`` is ``None`` or the
    ``rows``-row cache region of each beam's own columns.  Returns the
    merged heads ``(rows, Tq, H*Dh)`` in scratch.
    """
    batch, heads, shared_len, head_dim = keys.shape
    rows, q_len = queries.shape[:2]
    groups = rows // batch
    width = groups * q_len
    own_len = suffix.length if suffix is not None else 0
    key_len = shared_len + own_len
    queries = queries.reshape(batch, width, heads, head_dim)

    # Key-major scores (key, B, H, G*Tq): the softmax below reduces over
    # the leading axis, i.e. over long contiguous rows — and a longer key
    # axis is a longer prefix of the same buffer, so sizing it to the
    # suffix's capacity lets every step of a decode reuse one allocation.
    spare = suffix.capacity - own_len if suffix is not None else 0
    scores = scratch("attn_scores", (key_len + spare, batch, heads, width))[:key_len]
    shared_scores = scores[:shared_len]
    np.matmul(keys, queries.transpose(0, 2, 3, 1), out=shared_scores.transpose(1, 2, 0, 3))
    if suffix is not None:
        own_shape = (batch, groups, heads, own_len, head_dim)
        beam_queries = queries.reshape(batch, groups, q_len, heads, head_dim)
        own_scores = scores[shared_len:].reshape(own_len, batch, heads, groups, q_len)
        np.einsum("bghsd,bgqhd->sbhgq", suffix.keys.reshape(own_shape), beam_queries,
                  out=own_scores)

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
    if suffix is not None:
        by_beam = merged.reshape(batch, groups, q_len, heads, head_dim)
        by_beam += np.einsum("sbhgq,bghsd->bgqhd", own_scores, suffix.values.reshape(own_shape))
    return merged.reshape(rows, q_len, heads * head_dim)
