"""TinyLLaMA: a scaled-down LLaMA-architecture decoder-only transformer.

Faithful to the LLaMA design the paper builds on (Touvron et al. 2023):
pre-normalisation with RMSNorm, SwiGLU feed-forward, rotary position
embeddings, causal self-attention with a KV cache for incremental decoding.
Only the scale differs (the mechanism, not the capacity, is what the
reproduction exercises — see DESIGN.md).
"""

from __future__ import annotations

import copy

import numpy as np

from ..tensor import (
    BeamKVCache,
    Dropout,
    Embedding,
    KVCache,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    RMSNorm,
    RotaryEmbedding,
    StepWorkspace,
    Tensor,
    WeightMemo,
    causal_mask,
    is_grad_enabled,
)
from ..tensor import functional as F
from .config import LMConfig
from .inference import attention_geometry, cached_hidden_states

__all__ = ["TinyLlama", "TransformerBlock", "SwiGLU"]


class SwiGLU(Module):
    """LLaMA feed-forward: ``down( silu(gate(x)) * up(x) )``."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.gate_proj = Linear(dim, hidden, bias=False, rng=rng)
        self.up_proj = Linear(dim, hidden, bias=False, rng=rng)
        self.down_proj = Linear(hidden, dim, bias=False, rng=rng)
        # Cleared on every train()/eval() transition by Module.train.
        self._fused_gate_up = WeightMemo(max_entries=1)

    def forward(self, x: Tensor) -> Tensor:
        return self.down_proj(F.swiglu(self.gate_proj(x), self.up_proj(x)))

    def fused_gate_up_weight(self) -> np.ndarray:
        """Concatenated ``(dim, 2*hidden)`` weight for a single gate|up GEMM.

        Inference-only (read by :mod:`repro.llm.inference`), memoized under
        the same staleness rules as the fused QKV weight — see
        :class:`repro.tensor.WeightMemo`.
        """
        params = (self.gate_proj.weight, self.up_proj.weight)
        sources = tuple(param.data for param in params)
        return self._fused_gate_up.get(sources, params, lambda: np.concatenate(sources, axis=1))


class TransformerBlock(Module):
    """Pre-norm attention + SwiGLU block with residual connections.

    The differentiable form of a layer.  A KV-cached no-grad decode reads
    this block's parameters from :mod:`repro.llm.inference` instead of
    calling it.
    """

    def __init__(self, config: LMConfig, rope: RotaryEmbedding, rng: np.random.Generator):
        super().__init__()
        self.attn_norm = RMSNorm(config.dim)
        self.attention = MultiHeadAttention(
            config.dim,
            config.num_heads,
            rope=rope,
            dropout=config.dropout,
            rng=rng,
        )
        self.ffn_norm = RMSNorm(config.dim)
        self.feed_forward = SwiGLU(config.dim, config.ffn_hidden, rng)
        self.dropout = Dropout(config.dropout, rng=rng)

    def forward(self, x: Tensor, attn_mask: np.ndarray | None) -> Tensor:
        x = x + self.dropout(self.attention(self.attn_norm(x), attn_mask=attn_mask))
        x = x + self.dropout(self.feed_forward(self.ffn_norm(x)))
        return x


class TinyLlama(Module):
    """Decoder-only language model with an extendable vocabulary.

    ``extend_vocab`` mirrors ``model.resize_token_embeddings`` after adding
    the item-index tokens to the tokenizer (paper Sec. IV-A4).
    """

    def __init__(self, config: LMConfig):
        super().__init__()
        config.validate()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.rope = RotaryEmbedding(config.dim // config.num_heads, config.max_seq_len)
        self.tok_embeddings = Embedding(config.vocab_size, config.dim, rng=rng)
        self.blocks = ModuleList(
            [TransformerBlock(config, self.rope, rng) for _ in range(config.num_layers)]
        )
        self.final_norm = RMSNorm(config.dim)
        self.lm_head = Linear(config.dim, config.vocab_size, bias=False, rng=rng)
        # Cleared on every train()/eval() transition by Module.train.
        self._head_gather_cache = WeightMemo()

    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return self.tok_embeddings.num_embeddings

    def serving_replica(self) -> "TinyLlama":
        """A shallow copy for concurrent serving: shared weights, private memo.

        Multi-worker serving runs one decode thread per engine replica
        over the *same* parameter arrays (reads only — serving decodes
        run under ``no_grad``), but the gathered-head
        :class:`~repro.tensor.WeightMemo` is a mutable per-decode cache
        and must not be shared across threads; each replica gets a fresh
        one.  Everything else (blocks, embeddings, rope tables) is the
        identical module graph, so a replica costs no weight memory and
        its outputs are bit-identical to the original's.
        """
        replica = copy.copy(self)
        replica._head_gather_cache = WeightMemo()
        return replica

    def extend_vocab(self, extra_tokens: int, rng: np.random.Generator | None = None) -> None:
        """Grow the embedding table and output head by ``extra_tokens`` rows."""
        if extra_tokens <= 0:
            return
        rng = rng or np.random.default_rng(self.config.seed + 1)
        self.tok_embeddings.extend(extra_tokens, rng=rng)
        new_cols = (rng.standard_normal((self.config.dim, extra_tokens)) * 0.02).astype(np.float32)
        self.lm_head.weight.data = np.concatenate([self.lm_head.weight.data, new_cols], axis=1)
        self.lm_head.weight.grad = None
        self.lm_head.out_features += extra_tokens
        self._head_gather_cache.clear()

    # ------------------------------------------------------------------
    def hidden_states(
        self,
        tokens: np.ndarray,
        caches: list[KVCache] | None = None,
        pad_columns: np.ndarray | None = None,
        workspace: StepWorkspace | None = None,
        last_only: bool = False,
    ) -> Tensor:
        """Final-norm hidden states ``(B, T, dim)`` for ``tokens``.

        Without ``caches`` or ``pad_columns`` this walks the autograd blocks
        over a causal mask: the training graph, and the reference the
        kernel is tested against.  With either, it is the ndarray inference
        kernel (:mod:`repro.llm.inference`) — every decode in the repo — and
        grad must be off (``RuntimeError`` otherwise); without ``caches`` it
        runs through throwaway ones.  Both compute the same function of the
        same parameters.  ``workspace`` (reusable step scratch) only means
        something to the kernel.  ``last_only`` returns just the last
        position, ``(B, 1, dim)``: every layer cache still receives K/V for
        all of ``tokens``, but the kernel's final block does its attention
        and FFN for that one position — the callers that feed an output
        head from the last position lose nothing and skip most of a block.

        ``pad_columns`` is a boolean ``(B, C)`` map over key columns (``C <=
        cache length + T``; missing trailing columns are real), True at pad
        positions: left-padding, and the pads a cached-prefix decode leaves
        *between* a row's cached prefix and its left-padded suffix.  Pads
        are masked out as attention keys and real tokens keep their unpadded
        RoPE positions — row ``b`` of the new tokens is offset by the cache
        length minus its pad count — so the hidden states of real tokens
        match an unpadded per-row forward pass (exactly in exact arithmetic;
        to float rounding under BLAS, whose accumulation order varies with
        batch shape).
        """
        tokens = np.asarray(tokens)
        if caches is None and pad_columns is None:
            x = self.tok_embeddings(tokens)
            mask = causal_mask(tokens.shape[1], tokens.shape[1])
            for block in self.blocks:
                x = block(x, attn_mask=mask)
            hidden = self.final_norm(x)
            return hidden[:, -1:, :] if last_only else hidden
        if is_grad_enabled():
            raise RuntimeError(
                "KV-cached or padded decoding is inference-only: call under no_grad()"
            )
        caches = caches if caches is not None else self.new_caches()
        mask, rope_offset = attention_geometry(tokens.shape[1], caches[0].length, pad_columns)
        return Tensor(
            cached_hidden_states(self, tokens, caches, mask, rope_offset, workspace, last_only)
        )

    def forward(
        self,
        tokens: np.ndarray,
        caches: list[KVCache] | None = None,
        pad_columns: np.ndarray | None = None,
        last_only: bool = False,
        workspace: StepWorkspace | None = None,
    ) -> Tensor:
        """Next-token logits ``(B, T, vocab)``; arguments as in :meth:`hidden_states`.

        ``last_only`` applies the output head to the final position only
        (returning ``(B, 1, vocab)``): prompt prefill needs just the
        next-token logits, and the head matmul over every prompt column is
        otherwise the single largest wasted cost of a batched decode.
        """
        hidden = self.hidden_states(
            tokens,
            caches=caches,
            pad_columns=pad_columns,
            workspace=workspace,
            last_only=last_only,
        )
        return self.lm_head(hidden)

    # ------------------------------------------------------------------
    # Sparse (candidate-only) output head
    # ------------------------------------------------------------------
    def lm_head_gather(
        self,
        hidden: np.ndarray,
        token_ids: np.ndarray,
        workspace: StepWorkspace | None = None,
    ) -> np.ndarray:
        """Logits for ``token_ids`` only: ``hidden @ W[:, token_ids]``.

        The trie-constrained decode only ever *reads* the logits of tokens
        the current trie level allows — a few dozen candidates out of the
        whole vocabulary — so the full-vocabulary head GEMM computes mostly
        discarded columns.  This gathers the candidate columns once
        (memoized against the candidate array's identity, which the trie
        keeps stable per level) and runs the GEMM over them alone.  Each
        computed column is the same dot product the dense head performs,
        so candidate logits match the dense head's columns exactly.

        ``hidden`` is ``(rows, dim)`` float32; returns ``(rows,
        len(token_ids))``.
        """
        out = (
            workspace.take("sparse_logits", (hidden.shape[0], len(token_ids)))
            if workspace is not None
            else None
        )
        return np.matmul(hidden, self._gathered_head_weight(token_ids), out=out)

    def _gathered_head_weight(self, token_ids: np.ndarray) -> np.ndarray:
        """Memoized contiguous column gather ``W[:, token_ids]``.

        Keyed on the identity of ``token_ids`` (the trie memoizes one array
        per level union, so a decode hits this cache every step); staleness
        guards live in :class:`repro.tensor.WeightMemo`.
        """
        weight = self.lm_head.weight.data
        return self._head_gather_cache.get(
            (token_ids, weight),
            (self.lm_head.weight,),
            lambda: np.ascontiguousarray(weight[:, np.asarray(token_ids, dtype=np.int64)]),
        )

    def new_caches(self) -> list[KVCache]:
        """Fresh per-layer KV caches for incremental decoding."""
        return [KVCache() for _ in range(self.config.num_layers)]

    def new_beam_caches(self) -> list[BeamKVCache]:
        """Per-layer beam caches sharing the prompt across hypotheses."""
        return [BeamKVCache() for _ in range(self.config.num_layers)]
