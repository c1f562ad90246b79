"""Multi-head attention with rotary embeddings, KV cache and cross-attention.

This single block powers the tiny LLaMA language model (causal self-attention
with RoPE, paper backbone), the TIGER encoder-decoder (self + cross
attention) and the Transformer baselines (SASRec, BERT4Rec, FDSA).

:class:`MultiHeadAttention` is the differentiable module, over whole
sequences: training and the uncached reference forwards.  Every KV-cached
decode — the language model's and TIGER's — runs
:mod:`repro.llm.inference` instead, which reads this module's parameters
(and its memoized fused QKV weight); the cache classes here are that
kernel's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .nn import Dropout, Linear, Module
from .tensor import Tensor
from .workspace import WeightMemo

__all__ = ["RotaryEmbedding", "KVCache", "BeamKVCache", "MultiHeadAttention", "causal_mask"]


def causal_mask(query_len: int, key_len: int, offset: int = 0) -> np.ndarray:
    """Boolean mask, True where attention is *disallowed* (future tokens).

    ``offset`` shifts the query positions, which is how cached incremental
    decoding keeps causality: query ``i`` lives at absolute position
    ``offset + i`` and may attend to keys ``<= offset + i``.
    """
    q_pos = np.arange(query_len)[:, None] + offset
    k_pos = np.arange(key_len)[None, :]
    return k_pos > q_pos


class RotaryEmbedding:
    """Rotary positional embedding (RoPE), as used by LLaMA.

    Precomputes cos/sin tables up to ``max_positions``; :meth:`apply` is
    the differentiable rotation.
    """

    def __init__(self, head_dim: int, max_positions: int = 4096, base: float = 10000.0):
        if head_dim % 2 != 0:
            raise ValueError("RoPE head dimension must be even")
        self.head_dim = head_dim
        half = head_dim // 2
        inv_freq = 1.0 / (base ** (np.arange(half) / half))
        positions = np.arange(max_positions)
        angles = np.outer(positions, inv_freq)  # (P, half)
        self.cos = np.cos(angles).astype(np.float32)
        self.sin = np.sin(angles).astype(np.float32)

    def apply(self, x: Tensor, offset: int = 0) -> Tensor:
        """Rotate ``x`` of shape ``(B, H, T, Dh)`` at positions ``offset..``.

        One tape node: its closure keeps only the two table slices.  The
        backward is the sum of what the sliced-and-concatenated composition
        of primitive ops routed to each half, so gradients match it bit for
        bit.  Per-row positions (left-padded batches) are the inference
        kernel's (:mod:`repro.llm.inference`).
        """
        seq_len = x.shape[2]
        half = self.head_dim // 2
        cos = self.cos[offset : offset + seq_len][None, None, :, :]
        sin = self.sin[offset : offset + seq_len][None, None, :, :]
        x1 = x.data[..., :half]
        x2 = x.data[..., half:]
        out_data = np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)
        shape = x.shape

        def backward(g):
            g1 = g[..., :half]
            g2 = g[..., half:]
            # Added into zeros, as the composition's slice backward did.
            grad = np.zeros(shape, dtype=np.float32)
            grad[..., :half] += g1 * cos + g2 * sin
            grad[..., half:] += (-g1) * sin + g2 * cos
            return (grad,)

        return Tensor._make(out_data, (x,), backward)


@dataclass
class KVCache:
    """Per-layer key/value cache for incremental decoding (inference only).

    ``keys``/``values`` are views of the used prefix of preallocated buffers
    that grow geometrically, so appending one decode step writes a single
    column instead of re-copying the whole cache (``np.concatenate`` made
    every step O(sequence length); batched serving made that the dominant
    cost).  ``max_length`` is the final length when the owner knows it (0:
    unknown): buffers are then sized to exactly that many columns, which
    matters because :meth:`reorder` gathers whole buffers — a beam suffix
    of at most ``num_levels - 1`` columns must not drag 16 spare ones
    through every step's shuffle.
    """

    keys: np.ndarray | None = None
    values: np.ndarray | None = None
    max_length: int = 0

    def __post_init__(self) -> None:
        self._buf_keys = self.keys
        self._buf_values = self.values

    def _capacity(self, length: int) -> int:
        """Columns to allocate for ``length`` used ones."""
        if length <= self.max_length:
            return self.max_length
        # Modest headroom: beam reordering copies whole buffers, so a 2x
        # growth factor would double that traffic for short decodes.
        return length + max(16, length // 4)

    def seed(self, keys: np.ndarray, values: np.ndarray, length: int) -> None:
        """Resume decoding from precomputed K/V of shape ``(B, H, C, Dh)``.

        The cached-prefix serving path (:class:`repro.llm.PrefixKVCache`)
        seeds a fresh cache with the keys/values of an already-forwarded
        prompt prefix, so the model only runs the suffix tokens.  The
        arrays are adopted without copying: their leading ``length`` columns
        are used, the rest is capacity later appends write in place, so the
        arrays must be the caller's own.
        """
        if self.keys is not None:
            raise RuntimeError("seed() requires an empty cache")
        if keys.shape != values.shape:
            raise ValueError("keys and values must share a shape")
        self._buf_keys = keys
        self._buf_values = values
        self.keys = keys[:, :, :length]
        self.values = values[:, :, :length]

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        used = self.length
        new_len = used + k.shape[2]
        if (
            self._buf_keys is None
            or new_len > self._buf_keys.shape[2]
            or self._buf_keys.shape[0] != k.shape[0]
        ):
            shape = (k.shape[0], k.shape[1], self._capacity(new_len), k.shape[3])
            new_keys = np.empty(shape, dtype=k.dtype)
            new_values = np.empty(shape, dtype=v.dtype)
            if used:
                new_keys[:, :, :used] = self.keys
                new_values[:, :, :used] = self.values
            self._buf_keys, self._buf_values = new_keys, new_values
        self._buf_keys[:, :, used:new_len] = k
        self._buf_values[:, :, used:new_len] = v
        self.keys = self._buf_keys[:, :, :new_len]
        self.values = self._buf_values[:, :, :new_len]
        return self.keys, self.values

    @property
    def length(self) -> int:
        return 0 if self.keys is None else self.keys.shape[2]

    @property
    def batch_size(self) -> int:
        return 0 if self.keys is None else self.keys.shape[0]

    @property
    def capacity(self) -> int:
        """Columns the current buffers hold before :meth:`append` reallocates."""
        return 0 if self._buf_keys is None else self._buf_keys.shape[2]

    def reorder(self, beam_indices: np.ndarray) -> None:
        """Reindex the batch dimension after a beam-search hypothesis shuffle.

        ``beam_indices`` may have any length, so a flattened ``B*G`` beam
        axis is supported directly: batched beam search reorders with global
        indices ``b * G + origin`` and may also grow or shrink the batch.
        Spare buffer capacity is preserved so the following ``append``
        stays a single-column write.
        """
        if self.keys is None:
            return
        beam_indices = np.asarray(beam_indices)
        if len(beam_indices) == self.batch_size and np.array_equal(
            beam_indices, np.arange(self.batch_size)
        ):
            return  # identity shuffle: nothing moves
        used = self.length
        # Gather the *contiguous* buffers (a strided view would push numpy's
        # advanced indexing onto its slow generic path), keeping capacity.
        self._buf_keys = self._buf_keys[beam_indices]
        self._buf_values = self._buf_values[beam_indices]
        self.keys = self._buf_keys[:, :, :used]
        self.values = self._buf_values[:, :, :used]


class BeamKVCache:
    """KV cache that shares the prompt prefix across a request's beams.

    Beam search over ``B`` requests × ``G`` beams reads the same prompt
    keys/values for every beam of a request; a flat ``(B*G, H, T, Dh)``
    cache stores (and re-shuffles, every level) ``G`` copies of them, which
    makes memory traffic — not matmuls — the decode bottleneck.  This cache
    keeps the prompt portion at ``B`` rows and only the post-``fan_out``
    suffix at ``B*G`` rows; attention combines the two blockwise (see
    :mod:`repro.llm.inference` — a fanned cache is inference-only).

    ``beams`` is the *current* width ``G`` — the hypotheses per request
    that exist, not a cap: :meth:`reorder` moves the suffix onto a new
    width in the gather it makes anyway.  Beam reordering is legal because hypotheses
    never migrate between requests: flat index ``b*G + g`` always maps to
    prompt row ``b``, so ``reorder`` touches only the tiny suffix.
    """

    def __init__(self) -> None:
        self.prompt = KVCache()
        self.suffix = KVCache()
        self.beams = 1
        self.fanned = False

    @property
    def length(self) -> int:
        return self.prompt.length + self.suffix.length

    @property
    def batch_size(self) -> int:
        return self.prompt.batch_size * self.beams

    def seed_prompt(self, keys: np.ndarray, values: np.ndarray, length: int) -> None:
        """:meth:`KVCache.seed` the prompt region, before any :meth:`append` or :meth:`fan_out`.

        The seeded columns become the leftmost prompt columns; the suffix
        forward pass appends the remaining prompt tokens behind them.
        """
        if self.fanned:
            raise RuntimeError("seed_prompt must precede fan_out")
        self.prompt.seed(keys, values, length)

    def fan_out(self, beams: int, suffix_length: int = 0) -> None:
        """Declare ``beams`` hypotheses per request.  No data is copied.

        From here on appends go to the per-beam suffix region — at a width
        of 1 like at any other.  ``suffix_length`` is the number of
        per-beam columns the decode will append at most (the trie levels
        left), when known: the suffix buffers are then exactly that wide
        (see :class:`KVCache`).
        """
        if beams < 1:
            raise ValueError("beams must be positive")
        if self.fanned:
            raise RuntimeError("cache is already fanned out")
        self.beams = beams
        self.fanned = True
        self.suffix.max_length = suffix_length

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append to the prompt before :meth:`fan_out`, else to the suffix."""
        if not self.fanned:
            return self.prompt.append(k, v)
        return self.suffix.append(k, v)

    def reorder(self, beam_indices: np.ndarray, beams: int | None = None) -> None:
        """Shuffle hypotheses (flat ``B*G`` indices, within-request only).

        ``beams`` is the width the gathered rows are grouped by (default:
        unchanged) — ``len(beam_indices) / B``.
        """
        (self.suffix if self.fanned else self.prompt).reorder(beam_indices)
        self.beams = beams or self.beams


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention (the autograd module).

    Training, and the uncached reference forwards, run :meth:`forward`.
    Every KV-cached decode runs :mod:`repro.llm.inference` over the same
    parameters instead; :meth:`fused_qkv_weight` is what that kernel reads.

    Parameters
    ----------
    dim:
        Model dimension (must be divisible by ``num_heads``).
    num_heads:
        Number of attention heads.
    rope:
        Optional :class:`RotaryEmbedding` applied to queries and keys (only
        sensible for self-attention).
    dropout:
        Attention-probability dropout rate.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        rope: RotaryEmbedding | None = None,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.rope = rope
        self.q_proj = Linear(dim, dim, bias=False, rng=rng)
        self.k_proj = Linear(dim, dim, bias=False, rng=rng)
        self.v_proj = Linear(dim, dim, bias=False, rng=rng)
        self.out_proj = Linear(dim, dim, bias=False, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)
        # Cleared on every train()/eval() transition by Module.train.
        self._fused_qkv = WeightMemo(max_entries=1)

    def fused_qkv_weight(self) -> np.ndarray:
        """Concatenated ``(dim, 3*dim)`` weight for a single QKV GEMM.

        Inference-only (read by :mod:`repro.llm.inference`): one fused
        matmul replaces three per-projection BLAS calls on the decode hot
        path.  Invalidation — grad presence, train()/eval(), in-place
        optimizer steps — is :class:`repro.tensor.WeightMemo`'s.
        """
        params = (self.q_proj.weight, self.k_proj.weight, self.v_proj.weight)
        sources = tuple(param.data for param in params)
        return self._fused_qkv.get(sources, params, lambda: np.concatenate(sources, axis=1))

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, _, seq, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)

    def forward(
        self,
        x: Tensor,
        context: Tensor | None = None,
        attn_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend from ``x`` to ``context`` (defaults to self-attention).

        The differentiable graph, over whole sequences: every cached decode
        runs :mod:`repro.llm.inference` instead.  ``attn_mask`` is a boolean
        array broadcastable to ``(batch, heads, q_len, k_len)``; True
        entries are masked out.
        """
        source = context if context is not None else x
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(source))
        v = self._split_heads(self.v_proj(source))
        if self.rope is not None and context is None:
            q = self.rope.apply(q)
            k = self.rope.apply(k)

        out = _attention(q, k, v, attn_mask, self.attn_dropout)
        return self.out_proj(self._merge_heads(out))


def _attention(
    q: Tensor, k: Tensor, v: Tensor, attn_mask: np.ndarray | None, dropout: Dropout
) -> Tensor:
    """``softmax(masked(q kᵀ · scale)) → dropout → @ v`` as one tape node.

    The closure keeps the arrays of ``q``, ``k`` and ``v``, the softmax
    output and the dropout keep-mask (``bool``), nothing else: the scores,
    their scaled and masked copies and the float dropout multipliers die in
    the forward.  The backward runs the numpy expressions the primitive ops'
    backwards ran, in their order and on the same operand views, so every
    gradient is bit-identical to the composed graph's; the parents are
    ``(q, k, v)``, so the depth-first sort in :meth:`Tensor.backward` still
    visits v, k and q in that order.
    """
    scale = np.float32(1.0 / np.sqrt(q.shape[-1]))
    q_data, v_data = q.data, v.data
    kt = k.data.transpose(0, 1, 3, 2)
    scores = (q_data @ kt) * scale
    if attn_mask is not None:
        attn_mask = np.asarray(attn_mask, dtype=bool)
        scores = np.where(attn_mask, np.float32(-1e9), scores)
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    del scores
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
