"""TIGER (Rajput et al. 2023): generative retrieval with semantic IDs.

An encoder-decoder transformer trained from scratch: the encoder reads the
history as a sequence of semantic-ID tokens (RQ-VAE codes with the
*extra-level* dedup — TIGER predates USM), the decoder autoregressively
generates the target item's semantic ID, and inference is trie-constrained
beam search.  No natural-language pretraining anywhere — the contrast with
LC-Rec the paper draws in Table I.

Two inference routes share one set of weights: :meth:`TIGER.recommend`, the
per-request reference loop kept as the parity oracle (every beam's whole
prefix re-decoded, uncached, through the autograd decoder), and
:meth:`TIGER.recommend_many`, which decodes whole batches through
:class:`repro.serving.TIGEREngine`: the model is the *scorer* the shared beam
stepper of :mod:`repro.llm.generation` drives — encode once per batch,
project cross-attention K/V once per request, then forward only each beam's
newest token through KV caches on the kernel of :mod:`repro.llm.inference`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..data import SequentialDataset
from ..data.batching import iterate_minibatches, pad_sequences
from ..llm import backfill_items
from ..llm.generation import constrained_log_probs
from ..llm.inference import (
    CrossBeamKVCache,
    absolute_positions,
    attention_geometry,
    layer_stack_hidden_states,
)
from ..quantization.indexing import ItemIndexSet
from ..tensor import (
    Adam,
    Dropout,
    Embedding,
    LayerNorm,
    Module,
    ModuleList,
    StepWorkspace,
    Tensor,
    WeightMemo,
    causal_mask,
    is_grad_enabled,
    no_grad,
    train_epochs,
)
from ..tensor import functional as F
from .generative import BOS_ID, PAD_ID, IndexTokenSpace
from .layers import TransformerEncoderLayer

__all__ = ["TIGER", "TIGERConfig"]


@dataclass
class TIGERConfig:
    dim: int = 64
    num_heads: int = 2
    encoder_layers: int = 2
    decoder_layers: int = 2
    dropout: float = 0.1
    max_history: int = 10
    epochs: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    clip_norm: float = 5.0
    beam_size: int = 20
    seed: int = 0


class TIGER(Module):
    """Encoder-decoder generative recommender over semantic-ID tokens."""

    name = "TIGER"

    def __init__(self, index_set: ItemIndexSet, config: TIGERConfig | None = None):
        super().__init__()
        self.config = config or TIGERConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.space = IndexTokenSpace(index_set)
        self.trie = self.space.build_trie()
        self.num_levels = index_set.num_levels
        max_src = cfg.max_history * self.num_levels
        self.token_embeddings = Embedding(self.space.vocab_size, cfg.dim, rng=rng)
        self.encoder_positions = Embedding(max_src + 1, cfg.dim, rng=rng)
        self.decoder_positions = Embedding(self.num_levels + 1, cfg.dim, rng=rng)
        self.encoder_layers = ModuleList(
            [
                TransformerEncoderLayer(cfg.dim, cfg.num_heads, cfg.dim * 2, cfg.dropout, rng)
                for _ in range(cfg.encoder_layers)
            ]
        )
        self.decoder_layers = ModuleList(
            [
                TransformerEncoderLayer(
                    cfg.dim, cfg.num_heads, cfg.dim * 2, cfg.dropout, rng, with_cross_attention=True
                )
                for _ in range(cfg.decoder_layers)
            ]
        )
        self.encoder_norm = LayerNorm(cfg.dim)
        self.decoder_norm = LayerNorm(cfg.dim)
        self.dropout = Dropout(cfg.dropout, rng=rng)
        self._max_src = max_src
        # Cleared on every train()/eval() transition by Module.train.
        self._head_gather_cache = WeightMemo()

    def serving_replica(self) -> "TIGER":
        """A shallow copy for concurrent serving: shared weights, private memo.

        Same contract as :meth:`repro.llm.TinyLlama.serving_replica` —
        the module graph (and so every parameter array) is shared, while
        the gathered-head :class:`~repro.tensor.WeightMemo` is private to
        the replica, so cluster workers can decode concurrently without
        racing each other's caches.
        """
        replica = copy.copy(self)
        replica._head_gather_cache = WeightMemo()
        return replica

    # ------------------------------------------------------------------
    def encode_history(self, history: list[int]) -> list[int]:
        """The encoder's source tokens for ``history`` (most recent items, unpadded)."""
        ids = self.space.history_ids(list(history)[-self.config.max_history :])
        return ids[-self._max_src :]

    def _pad_histories(self, histories: list[list[int]]) -> np.ndarray:
        sources = [self.encode_history(history) for history in histories]
        return pad_sequences(sources, pad_value=PAD_ID, align="right")

    def encode(self, source: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Bidirectional encoding; returns memory and the key padding mask.

        With grad off the layers run on the ndarray kernel
        (:mod:`repro.llm.inference`), with grad on they are the autograd
        modules: the same function of the same parameters.
        """
        positions = np.arange(source.shape[1])
        pad_mask = (source == PAD_ID)[:, None, None, :]
        if not is_grad_enabled():
            x = self.token_embeddings.weight.data[source]
            x += self.encoder_positions.weight.data[positions]
            layers, norm = self.encoder_layers, self.encoder_norm
            memory = layer_stack_hidden_states(layers, norm, x, None, pad_mask)
            return Tensor(memory), pad_mask
        x = self.token_embeddings(source) + self.encoder_positions(positions)
        x = self.dropout(x)
        for layer in self.encoder_layers:
            x = layer(x, attn_mask=pad_mask)
        return self.encoder_norm(x), pad_mask

    def decode_hidden(
        self,
        memory: Tensor | None,
        memory_mask: np.ndarray | None,
        decoder_input: np.ndarray,
        caches: list[CrossBeamKVCache] | None = None,
        pad_columns: np.ndarray | None = None,
        workspace: StepWorkspace | None = None,
        last_only: bool = False,
    ) -> Tensor:
        """Causal decoding with cross-attention; returns hidden states.

        The output head (tied to the token embeddings) is applied by the
        caller — densely in :meth:`decode`, or for a candidate union only
        via :meth:`head_gather` (the trie-aware sparse decode).

        Without ``caches``, ``decoder_input`` is the whole BOS-prefixed
        sequence and runs through the autograd layers against ``memory`` —
        training, and the uncached reference loop of :meth:`recommend`.
        With ``caches`` (:meth:`new_beam_caches`; grad must be off) it is the
        KV-cached ndarray kernel: ``decoder_input`` holds only the tokens not
        forwarded yet, the first call projects ``memory`` into the
        cross-attention caches and later calls need no ``memory``.  The
        remaining arguments are those of
        :meth:`repro.llm.TinyLlama.hidden_states`, with learned positions
        in place of RoPE.
        """
        seq_len = decoder_input.shape[1]
        if caches is not None:
            if is_grad_enabled():
                raise RuntimeError("KV-cached decoding is inference-only: call under no_grad()")
            if caches[0].memory_keys is None:
                for layer, cache in zip(self.decoder_layers, caches):
                    cache.project_memory(layer.cross_attn, memory.data, memory_mask)
            mask, offset = attention_geometry(seq_len, caches[0].length, pad_columns)
            x = self.token_embeddings.weight.data[decoder_input]
            x += self.decoder_positions.weight.data[absolute_positions(offset, seq_len)]
            hidden = layer_stack_hidden_states(
                self.decoder_layers, self.decoder_norm, x, caches, mask, workspace, last_only
            )
            return Tensor(hidden)
        positions = np.arange(seq_len)
        x = self.token_embeddings(decoder_input)
        x = x + self.decoder_positions(positions)
        x = self.dropout(x)
        self_mask = causal_mask(seq_len, seq_len)
        cross_mask = memory_mask  # (B, 1, 1, S) broadcasts over query length
        for layer in self.decoder_layers:
            x = layer(x, attn_mask=self_mask, context=memory, context_mask=cross_mask)
        return self.decoder_norm(x)

    def decode(self, memory: Tensor, memory_mask: np.ndarray, decoder_input: np.ndarray) -> Tensor:
        """Causal decoding with cross-attention; returns token logits."""
        hidden = self.decode_hidden(memory, memory_mask, decoder_input)
        return hidden @ self.token_embeddings.weight.transpose(1, 0)

    def head_gather(self, hidden: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        """Logits for ``token_ids`` only: ``hidden @ W[token_ids].T``.

        The output head of trie-constrained decoding: each computed column
        is the same embedding dot product :meth:`decode`'s dense head
        performs, just restricted to the candidate union.
        The gathered rows are memoized against the candidate array's
        identity (the trie keeps one stable array per level); staleness
        guards live in :class:`repro.tensor.WeightMemo`.
        """
        weight = self.token_embeddings.weight
        sub = self._head_gather_cache.get(
            (token_ids, weight.data),
            (weight,),
            lambda: np.ascontiguousarray(weight.data[np.asarray(token_ids, dtype=np.int64)].T),
        )
        return np.matmul(hidden, sub)

    def forward(self, source: np.ndarray, decoder_input: np.ndarray) -> Tensor:
        memory, mask = self.encode(source)
        return self.decode(memory, mask, decoder_input)

    # ------------------------------------------------------------------
    # The scorer surface the shared beam stepper drives (repro.llm.generation)
    # ------------------------------------------------------------------
    def new_beam_caches(self) -> list[CrossBeamKVCache]:
        """Fresh per-layer self- plus cross-attention caches for one batched decode."""
        return [CrossBeamKVCache() for _ in self.decoder_layers]

    def prefill_prompts(
        self,
        prompts: list[list[int]],
        caches: list[CrossBeamKVCache],
        workspace: StepWorkspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The prompt phase of a batched decode: encode, then forward BOS.

        ``prompts`` (:meth:`encode_history`) are right-padded into one
        source batch; pads are masked as keys, so batching changes no row's
        memory.  The BOS forward projects the memory into ``caches``'
        cross-attention side and leaves BOS as the one shared, never-padded
        self-attention prompt column.  Returns the BOS hidden state ``(B,
        dim)``, that column's pad map and the number of forwards run.
        """
        source = pad_sequences(prompts, pad_value=PAD_ID, align="right")
        memory, memory_mask = self.encode(source)
        bos = np.full((len(prompts), 1), BOS_ID, dtype=np.int64)
        for cache in caches:
            cache.prompt.max_length = 1  # BOS is the whole self-attention prompt
        hidden = self.decode_hidden(memory, memory_mask, bos, caches=caches, workspace=workspace)
        return hidden.data[:, -1, :], np.zeros((len(prompts), 1), dtype=bool), 2

    def hidden_states(self, tokens: np.ndarray, caches: list, **kwargs) -> Tensor:
        """Decoder hidden states of not-yet-forwarded ``tokens`` (see :meth:`decode_hidden`)."""
        return self.decode_hidden(None, None, tokens, caches=caches, **kwargs)

    def lm_head_gather(
        self, hidden: np.ndarray, token_ids: np.ndarray, workspace=None
    ) -> np.ndarray:
        """:meth:`head_gather` under the name the stepper calls (no scratch to reuse)."""
        return self.head_gather(hidden, token_ids)

    # ------------------------------------------------------------------
    def fit(self, dataset: SequentialDataset) -> list[float]:
        cfg = self.config
        histories, targets = [], []
        for seq in dataset.split.train_sequences:
            for t in range(1, len(seq)):
                histories.append(seq[max(0, t - cfg.max_history) : t])
                targets.append(seq[t])
        if not histories:
            raise ValueError("no training pairs")
        source = self._pad_histories(histories)
        target_tokens = np.array([self.space.item_tokens(item) for item in targets], dtype=np.int64)
        decoder_input = np.concatenate(
            [np.full((len(targets), 1), BOS_ID, dtype=np.int64), target_tokens[:, :-1]],
            axis=1,
        )
        rng = np.random.default_rng(cfg.seed)

        def loss(batch_idx):
            logits = self.forward(source[batch_idx], decoder_input[batch_idx])
            return F.cross_entropy(logits, target_tokens[batch_idx])

        return train_epochs(
            self,
            Adam(self.parameters(), lr=cfg.lr),
            (
                iterate_minibatches(len(histories), cfg.batch_size, rng=rng)
                for _ in range(cfg.epochs)
            ),
            loss,
            name="TIGER epoch",
            clip_norm=cfg.clip_norm,
        )

    # ------------------------------------------------------------------
    def _beam_search(
        self, memory: Tensor, memory_mask: np.ndarray, beam_size: int
    ) -> list[tuple[tuple[int, ...], float]]:
        """Trie-constrained beam expansion over one encoded history.

        Scores are constrained log-probabilities: each level renormalises
        over the tokens the trie allows for that beam (what a
        ``prefix_allowed_tokens_fn`` logits processor computes), matching
        the serving engine's sparse candidate-only log-softmax.
        """
        beams: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
        for _ in range(self.num_levels):
            # Re-decode the full (short) prefix for every beam.
            prefixes = [beam[0] for beam in beams]
            decoder_input = np.array([(BOS_ID,) + prefix for prefix in prefixes], dtype=np.int64)
            batch = len(beams)
            memory_b = Tensor(np.repeat(memory.data, batch, axis=0))
            mask_b = np.repeat(memory_mask, batch, axis=0)
            logits = self.decode(memory_b, mask_b, decoder_input).data
            step_logits = logits[:, -1, :]
            candidates = []
            for beam_index, (prefix, score) in enumerate(beams):
                allowed = self.trie.allowed_tokens(prefix)
                step_logp = constrained_log_probs(step_logits[beam_index], allowed)
                for token, token_logp in zip(allowed, step_logp):
                    candidates.append((prefix + (int(token),), score + float(token_logp)))
            candidates.sort(key=lambda c: -c[1])
            beams = candidates[:beam_size]
        return beams

    def _ranked(self, beams: list[tuple[tuple[int, ...], float]], top_k: int) -> list[int]:
        ranked: list[int] = []
        for prefix, _ in beams:
            item = self.trie.item_at(prefix)
            if item not in ranked:
                ranked.append(item)
            if len(ranked) == top_k:
                break
        return ranked

    def recommend(self, history: list[int], top_k: int = 10) -> list[int]:
        """Trie-constrained beam search over semantic IDs (reference loop).

        Always returns ``top_k`` item ids (catalog permitting): a beam that
        dedups to fewer unique items — narrow trie levels starve the beam
        mid-search — is re-run once at full-catalog width, and any residual
        shortfall is backfilled deterministically with the smallest unused
        item ids, so ranking metrics never see truncated lists.

        This is the single-request parity oracle; serving and batched
        evaluation go through :meth:`recommend_many` instead.
        """
        if top_k < 1:
            raise ValueError("top_k must be positive")
        beam_size = max(self.config.beam_size, top_k)
        num_items = self.trie.num_items
        with no_grad():
            source = self._pad_histories([list(history)])
            memory, mask = self.encode(source)
            beams = self._beam_search(memory, mask, beam_size)
            ranked = self._ranked(beams, top_k)
            if len(ranked) < min(top_k, num_items) and beam_size < num_items:
                beams = self._beam_search(memory, mask, num_items)
                ranked = self._ranked(beams, top_k)
        return backfill_items(ranked, top_k, num_items)

    def recommend_many(self, histories: list[list[int]], top_k: int = 10) -> list[list[int]]:
        """Batched :meth:`recommend`: all histories decoded together.

        Routes through the serving stack's :class:`repro.serving.TIGEREngine`
        — the whole batch is encoded in one encoder forward and expanded
        ``B×G`` live decoder beams per trie level — instead of the per-request
        Python loop.  Rankings match :meth:`recommend` request-for-request,
        including the widen-to-catalog retry and deterministic backfill.
        """
        # Lazy import: the serving package depends on repro.llm, not the
        # other way around; baselines must stay importable without it.
        from ..serving import TIGEREngine

        return TIGEREngine(self).recommend_many(histories, top_k=top_k)

    def score_all(self, histories):  # pragma: no cover - guard
        raise NotImplementedError("TIGER is generative; use recommend()")
