"""Decoding: greedy generation, constrained beam search, sequence scoring.

Implements the paper's inference procedure (Sec. III-D2): "the decoder
module performs a beam search across the index tokens ... the probabilities
of tokens that may result in illegal item indices will be assigned as 0",
using the index trie built from the learned item indices.

Constrained decoding is one resumable stepper, built around
:class:`DecodeState` and driven over a :class:`Scorer` — the decoder-only
:class:`TinyLlama` or the encoder-decoder :class:`repro.baselines.TIGER`;
everything below the prompt phase is the same code for both.  It decodes
``B`` prompts × ``G`` live beams per step in a single forward over a
flattened ``B*G`` batch axis, with the trie constraint applied as array
gathers over (hypothesis, child) pairs.  The beam size ``K`` caps a
request's hypotheses, it is not the row shape: ``G`` is the most
hypotheses any in-flight request has alive (a request owns at most as many
as the trie offers), so a thin level steps thin.  Prompts of mixed length
are left-padded; pad positions are masked out of attention and real tokens
keep their unpadded RoPE positions, so padding changes nothing
mathematically: rankings are identical to per-request decoding and scores
agree to float rounding (BLAS accumulation order varies with batch shape).  With a
:class:`PrefixKVCache` the prompt phase additionally skips re-running
prompt prefixes it has decoded before (template heads, grown session
histories, repeated queries): cached K/V is seeded into the decode caches
and only each request's unseen suffix is forwarded.

:func:`decode_prefill` runs the prompt phase, then level 0 as a step from
the root — one hypothesis per row, scored 0.0 — through the same selection
:func:`decode_step` runs after its forward to advance every row by one trie
level.  A decode is a closed cohort: its rows are one prefill's, from
prefill to finish, and sit at one trie depth, so they all reach the final
level on the same step, where :func:`decode_finish` harvests them all.
:func:`beam_search_items_single` is the original per-hypothesis loop, kept
as the parity oracle.

Scoring semantics: hypothesis scores are *constrained* log-probabilities —
at every level each hypothesis's distribution renormalises over the tokens
the trie allows it (exactly what a ``prefix_allowed_tokens_fn`` logits
processor does in the reference implementations).  This is what makes the
decode *sparse*: only the logits of the current trie level's candidate
union ever enter the math, so the engine computes just those columns via a
gathered output-head GEMM (``TinyLlama.lm_head_gather``) and normalises each
hypothesis over its own children only (:func:`pair_log_softmax`) —
identical scores, a vocabulary-sized factor less work.  It
also makes levels where every live beam has exactly one legal continuation
*free*: a singleton allowed set renormalises to log-probability 0.0, so
the **forced-token fast path** appends those tokens without any model
forward and the consecutive forced levels are flushed through the
transformer in one combined multi-token forward when (and if) a later
level actually needs logits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Protocol, Sequence

import numpy as np

from ..quantization.trie import IndexTrie, SparseCandidates
from ..tensor import BeamKVCache, StepWorkspace, Tensor, no_grad
from .model import TinyLlama
from .prefix_cache import PrefixKVCache, PrefixMatch

__all__ = [
    "BeamHypothesis",
    "DecodeState",
    "Scorer",
    "backfill_items",
    "backfill_ranked_item_ids",
    "beam_search_items_single",
    "constrained_log_probs",
    "decode_finish",
    "decode_prefill",
    "decode_step",
    "left_pad_prompts",
    "pair_log_softmax",
    "ranked_item_ids",
    "topk_desc",
    "greedy_generate",
    "sequence_logprob",
]
# The pad token of every decode: prompts are left-padded with it and a dead
# hypothesis's pending column holds it.  The LM vocabulary's ``<pad>`` and
# the ID baselines' ``PAD_ID`` are both 0.
PAD_ID = 0


class Scorer(Protocol):
    """What the beam stepper needs from a model: hidden states and a head.

    :class:`~repro.llm.TinyLlama` (decoder-only: the prompt is forwarded
    into the caches' shared prompt region; the methods are documented
    there) and :class:`repro.baselines.TIGER` (encoder-decoder: the prompt
    becomes cross-attention K/V, BOS is the shared self-attention prompt
    column) both supply it over the kernel of :mod:`repro.llm.inference`.
    ``caches`` is what :meth:`new_beam_caches` returned: per-layer
    :class:`~repro.tensor.BeamKVCache` (or a subclass carrying more), which
    the stepper fans out and reorders itself.  ``hidden_states``
    takes ``pad_columns``, ``workspace`` and ``last_only``.  An
    encoder-decoder scorer also has ``prefill_prompts(prompts, caches,
    workspace=)`` — its prompt phase, returning ``(last_hidden, pad_columns,
    forwards)``.
    """

    def new_beam_caches(self) -> list[BeamKVCache]: ...

    def hidden_states(self, tokens: np.ndarray, caches: list, **kwargs) -> Tensor: ...

    def lm_head_gather(self, hidden: np.ndarray, token_ids: np.ndarray, **kwargs) -> np.ndarray: ...


def pair_log_softmax(logits: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Constrained log-softmax of hypotheses whose legal logits lie end to end.

    ``logits`` holds hypothesis ``i``'s ``counts[i]`` legal-continuation
    logits as one contiguous segment, the segments in hypothesis order (a
    hypothesis that expands nothing has count 0 and no segment).  Each
    segment is normalised over itself alone, with the arithmetic of
    :func:`constrained_log_probs` — so a hypothesis's scores never depend
    on how many children its neighbours have.
    """
    sizes = counts[counts > 0]
    starts = np.cumsum(sizes) - sizes
    shifted = logits - np.repeat(np.maximum.reduceat(logits, starts), sizes)
    # Each segment's sum starts from a 0.0 slot of its own: ``add.reduceat``
    # then adds in ``np.sum``'s order (it would otherwise add the first
    # term last), so the normaliser is the oracle's bit for bit.
    heads = starts + np.arange(sizes.shape[0])
    terms = np.ones(logits.shape[0] + sizes.shape[0], dtype=bool)
    terms[heads] = False
    exps = np.zeros(terms.shape[0], dtype=logits.dtype)
    exps[terms] = np.exp(shifted)
    return shifted - np.repeat(np.log(np.add.reduceat(exps, heads)), sizes)


def topk_desc(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of a 2-D array: descending score, ties by index.

    ``argpartition`` + a sort of only ``k`` winners per row, instead of a
    full ``O(n log n)`` argsort over every candidate.
    """
    if k < scores.shape[1]:
        part = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
    else:
        part = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    part_scores = np.take_along_axis(scores, part, axis=1)
    order = np.lexsort((part, -part_scores), axis=1)
    top = np.take_along_axis(part, order, axis=1)
    return top, np.take_along_axis(part_scores, order, axis=1)


@dataclass(slots=True)
class BeamHypothesis:
    """One completed beam: an index-token id sequence and its log prob."""

    token_ids: tuple[int, ...]
    score: float
    item_id: int


def left_pad_prompts(prompts: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Left-pad ``prompts`` with :data:`PAD_ID` to a rectangle.

    Returns ``(tokens, pad_lengths)`` where ``tokens`` is ``(B, max_len)``
    int64 and ``pad_lengths[b]`` counts the pads prepended to row ``b``.
    Left-padding keeps every prompt's *last* token in the final column, so
    next-token logits for all rows come from one slice.
    """
    if not prompts:
        raise ValueError("need at least one prompt")
    if any(len(p) == 0 for p in prompts):
        raise ValueError("prompts must be non-empty")
    max_len = max(len(p) for p in prompts)
    tokens = np.full((len(prompts), max_len), PAD_ID, dtype=np.int64)
    pad_lengths = np.zeros(len(prompts), dtype=np.int64)
    for row, prompt in enumerate(prompts):
        pad_lengths[row] = max_len - len(prompt)
        tokens[row, pad_lengths[row] :] = np.asarray(prompt, dtype=np.int64)
    return tokens, pad_lengths


def ranked_item_ids(hypotheses: Sequence[BeamHypothesis], top_k: int) -> list[int]:
    """Unique item ids of score-sorted ``hypotheses``, best first."""
    ranked: list[int] = []
    for hypothesis in hypotheses:
        if hypothesis.item_id not in ranked:
            ranked.append(hypothesis.item_id)
        if len(ranked) == top_k:
            break
    return ranked


def backfill_items(ranked: list[int], top_k: int, num_items: int) -> list[int]:
    """Pad a deduped ranking to ``top_k`` ids, deterministically.

    The tail is filled with the smallest catalog item ids not already
    ranked; only a catalog smaller than ``top_k`` yields a shorter list.
    """
    if len(ranked) >= min(top_k, num_items):
        return ranked
    seen = set(ranked)
    for item in range(num_items):
        if item not in seen:
            ranked.append(item)
            if len(ranked) == top_k:
                break
    return ranked


def backfill_ranked_item_ids(
    hypotheses: Sequence[BeamHypothesis], top_k: int, num_items: int
) -> list[int]:
    """:func:`ranked_item_ids`, padded to ``top_k`` ids when the beam is short.

    Constrained decoding can surface fewer than ``top_k`` unique items — a
    narrow trie level starves the beam mid-search, or ``top_k`` exceeds
    what the beam width can enumerate — and ranking metrics (HR@k, NDCG@k)
    treat a short list as misses at the missing ranks; see
    :func:`backfill_items` for the fill policy.
    """
    return backfill_items(ranked_item_ids(hypotheses, top_k), top_k, num_items)


def _seed_prompt_block(
    model: TinyLlama,
    caches: list[BeamKVCache],
    matches: list[PrefixMatch | None],
    prefix_width: int,
    width: int,
) -> np.ndarray:
    """One ``(layers, 2, B, heads, width, head_dim)`` prompt K/V block, prefixes seeded.

    Each layer's cache adopts its K and V views, so the suffix forward
    appends into it.  The leading ``prefix_width`` columns are the cached
    region: a row's matched K/V is copied in right-aligned (one copy,
    every layer at once) and the pads left of it, which the caller
    masks, are zeroed.
    """
    attention = model.blocks[0].attention
    block = np.empty(
        (len(caches), 2, len(matches), attention.num_heads, width, attention.head_dim),
        dtype=np.float32,
    )
    for row, match in enumerate(matches):
        start = prefix_width - (match.length if match else 0)
        block[:, :, row, :, :start] = 0.0
        if match:
            block[:, :, row, :, start:prefix_width] = match.kv
    for layer, cache in enumerate(caches):
        cache.seed_prompt(block[layer, 0], block[layer, 1], length=prefix_width)
    return block


def _store_prompts(
    prompts: list[list[int]],
    block: np.ndarray,
    cached_lens: np.ndarray,
    prefix_width: int,
    remainder_pads: np.ndarray,
    prefix_cache: PrefixKVCache,
    sessions: Sequence[Hashable | None],
) -> None:
    """File each row's prompt into the prefix cache.

    Row ``b``'s prompt K/V sits right-aligned in two column ranges of the
    prompt block ``block[:, :, b]`` — the seeded prefix region and the
    forwarded suffix region — so its pad-free concatenation is exactly the
    unpadded prompt K/V (pads influence nothing: they are masked out of
    attention and K/V at position ``i`` depends only on tokens ``<= i``).
    ``insert`` copies only the columns it stores: all of a session row's
    (which replaces that session's previous prompt), and of a keyless
    row's only those an earlier prompt indexed.
    """
    for row, (prompt, session) in enumerate(zip(prompts, sessions)):
        if len(prompt) < prefix_cache.min_prefix_len:
            continue
        columns = (
            slice(prefix_width - int(cached_lens[row]), prefix_width),
            slice(prefix_width + int(remainder_pads[row]), None),
        )
        prefix_cache.insert(prompt, block[:, :, row], columns=columns, session=session)


def _prefill_prompts(
    model: TinyLlama,
    prompts: list[list[int]],
    caches: list[BeamKVCache],
    prefix_cache: PrefixKVCache | None,
    workspace: StepWorkspace,
    sessions: Sequence[Hashable | None],
) -> tuple[np.ndarray, np.ndarray]:
    """Run the prompt phase of a batched decode through ``caches``.

    With a prefix cache, each row is independently matched against it: the
    matched K/V is seeded into the caches (skipping the transformer for
    those tokens) and only the per-row unseen suffix is forwarded.  Decoded
    prompts are filed back (``sessions`` names each row's session, whose
    prompt stores all its K/V), so grown session histories hit on their
    next turn, and repeated templates and duplicate queries from their
    second sighting on.

    Returns ``(last_hidden, pad_columns)``: the final-norm hidden state of
    every row's last prompt token ``(B, dim)`` — the candidate-gathered
    output head is the caller's — and the boolean per-row pad-column map
    over all prompt columns, which every subsequent decode step must pass
    back to the model.
    """
    matches: list[PrefixMatch | None] = [None] * len(prompts)
    if prefix_cache is not None:
        matches = [prefix_cache.match(p, max_len=len(p) - 1) for p in prompts]
    cached_lens = np.array([m.length if m else 0 for m in matches], dtype=np.int64)
    prefix_width = int(cached_lens.max())
    remainders = [p[int(c) :] for p, c in zip(prompts, cached_lens)]
    tokens, remainder_pads = left_pad_prompts(remainders)
    block = _seed_prompt_block(model, caches, matches, prefix_width, prefix_width + tokens.shape[1])
    del matches  # their K/V copies are seeded: free them before the forward
    prefix_pad = np.arange(prefix_width)[None, :] < (prefix_width - cached_lens)[:, None]
    suffix_pad = np.arange(tokens.shape[1])[None, :] < remainder_pads[:, None]
    pad_columns = np.concatenate([prefix_pad, suffix_pad], axis=1)
    hidden = model.hidden_states(
        tokens,
        caches=caches,
        pad_columns=pad_columns,
        workspace=workspace,
        last_only=True,
    ).data[:, -1, :]
    if prefix_cache is not None:
        _store_prompts(
            prompts, block, cached_lens, prefix_width, remainder_pads, prefix_cache, sessions
        )
    return hidden, pad_columns


@dataclass
class DecodeState:
    """Resumable state of a batched trie-constrained beam decode.

    Produced by :func:`decode_prefill`, advanced one trie level at a time
    by :func:`decode_step` and harvested by :func:`decode_finish`.  A state is a closed
    cohort: its rows are one prefill's, from prefill to finish, and every
    row sits at the same trie depth, so the cohort finishes on one step.
    ``prompt_pads`` marks each row's pad columns in the shared prompt
    region, which keeps every row's attention inputs and RoPE positions
    identical to decoding it alone.

    ``model`` is the :class:`Scorer` being decoded.  For an encoder-decoder
    the shared prompt region is the single BOS column (``prompt_pads`` all
    False) and the cross-attention K/V travel inside ``caches``, so nothing
    below knows which architecture it is stepping.

    ``pending`` holds the tokens already appended to every beam but not
    yet forwarded through the model: always the latest chosen token, plus
    — after forced-token fast-path levels — the forced tokens accumulated
    since the last real forward.  The next step that needs logits runs all
    pending columns through the transformer in one combined forward.
    ``workspace`` is the step-scratch arena (cleared whenever the width
    changes, and at finish).

    A hypothesis is one trie node id (see :class:`IndexTrie`):
    ``beam_nodes[b, g]`` is the prefix hypothesis ``g`` of row ``b`` has
    decoded, so the trie constraint, forcedness, depth, beam extension and
    the retired item ids are array gathers over ``beam_nodes``, never
    per-hypothesis Python.  A ``-inf`` slot holds its depth's dead node;
    every slot sits at the cohort's depth.

    ``narrow`` holds one entry per row: ``None`` decodes the full trie, a node mask
    of the decode trie (:meth:`IndexTrie.path_mask` of the row's candidate
    items) restricts that row's beam *selection* while scores keep
    renormalising over the full trie — tokens off the candidate paths are
    set to ``-inf`` *after* the constrained log-softmax, so the surviving
    hypotheses carry exactly the scores a full decode would give them and
    the row's ranking over its candidate set is identical to a full decode
    filtered post hoc.  Rows narrowed to different sets (and un-narrowed
    rows) share one decode and one scoring path: narrowing is a filter on
    the scored (hypothesis, child) pairs, nothing more.

    ``forwards`` counts the transformer forwards this state has run (the
    prompt phase's own count and the steps) — the forced fast path exists
    to push it below one-per-level — and ``beam_rows`` the hypothesis rows
    × tokens the steps forwarded.

    ``num_beams`` caps a request's hypotheses; it is not a shape.  The
    caches and ``pending`` carry :attr:`width` hypotheses per request —
    the most any row has alive — and only those leading slots of the
    score/node tables (at least that wide; every row's slots are best
    first, as top-k sorts them, so its live hypotheses are its leading
    slots) reach the model and the trie.
    """

    model: Scorer
    trie: IndexTrie
    num_beams: int
    caches: list[BeamKVCache]
    beam_nodes: np.ndarray  # (B, >= width) int64: each hypothesis's trie node
    beam_scores: np.ndarray  # (B, >= width) float64
    prompt_pads: np.ndarray  # (B, W) bool: pad columns in the prompt region
    narrow: list[np.ndarray | None]  # (B,) each row's selectable nodes, None = full trie
    pending: np.ndarray = field(default_factory=lambda: np.empty((0, 1), dtype=np.int64))
    workspace: StepWorkspace = field(default_factory=StepWorkspace)
    forwards: int = 0
    beam_rows: int = 0

    @property
    def num_rows(self) -> int:
        """Requests currently in flight."""
        return self.beam_nodes.shape[0]

    @property
    def width(self) -> int:
        """Hypotheses per request the caches and ``pending`` carry right now."""
        return self.caches[0].beams if self.caches else 0

    def row_depths(self) -> np.ndarray:
        """``(B,)`` trie levels each row has decoded: one value, a closed cohort's depth."""
        return self.trie.depth[self.beam_nodes[:, 0]]

    def live_width(self) -> int:
        """Most live hypotheses of any row (0: the cohort is at the final level)."""
        if self.done:
            return 0
        return max(1, int(np.isfinite(self.beam_scores).sum(axis=1).max()))

    @property
    def done(self) -> bool:
        """Whether the cohort has reached the final trie level."""
        return bool((self.row_depths() == self.trie.num_levels).all())

    def flat_pad_columns(self) -> np.ndarray | None:
        """Per-hypothesis pad map over the prompt region (None: no pads).

        Suffix columns are every hypothesis's own tokens, never pads.
        """
        if not self.prompt_pads.any():
            return None
        return np.repeat(self.prompt_pads, self.width, axis=0)


def decode_prefill(
    model: Scorer,
    prompts: Sequence[Sequence[int]],
    trie: IndexTrie,
    beam_size: int = 20,
    prefix_cache: PrefixKVCache | None = None,
    narrow: Sequence[Sequence[int] | None] | None = None,
    sessions: Sequence[Hashable | None] | None = None,
) -> DecodeState:
    """Run the prompt phase and level-0 beam expansion for ``prompts``.

    Returns a :class:`DecodeState` with every row holding its top-``K``
    legal first index tokens; :func:`decode_step` advances it one trie
    level per call.  Level 0 is a step from the root: the state starts at
    one root hypothesis per row, scored 0.0, and the prompt's last hidden
    state runs through the selection every step uses.

    ``prefix_cache`` enables cross-request prompt K/V reuse: prompt
    prefixes it has seen before are not re-forwarded — their cached K/V is
    seeded into the decode caches and only each row's unseen suffix runs
    through the model.  Rankings are unaffected (see
    :class:`repro.llm.PrefixKVCache` for the invalidation contract).
    ``sessions`` names, per prompt, the session whose next prompt extends
    it (``None`` for a keyless row): a session row's prompt K/V is stored
    whole and replaces that session's previous prompt, a keyless row's is
    stored only where an earlier prompt shares it (``sessions=None``:
    every row is keyless).
    ``narrow`` optionally
    restricts beam selection to candidate items of ``trie`` (see
    :class:`DecodeState`): one item-id sequence per prompt, ``None`` for a
    full-trie row.  Each row's ranking over its candidate set matches a
    full decode filtered post hoc.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be positive")
    prompts = [list(map(int, p)) for p in prompts]
    if not prompts:
        raise ValueError("need at least one prompt")
    if narrow is None:
        narrow = [None] * len(prompts)
    elif len(narrow) != len(prompts):
        raise ValueError("narrow must match prompts one-to-one")
    else:
        narrow = [None if items is None else trie.path_mask(items) for items in narrow]
    if sessions is None:
        sessions = [None] * len(prompts)
    elif len(sessions) != len(prompts):
        raise ValueError("sessions must match prompts one-to-one")
    for row, prompt in enumerate(prompts):
        if not prompt:
            raise ValueError(f"prompt {row} is empty: every request needs at least one token")
    num_beams = min(beam_size, trie.num_items)
    workspace = StepWorkspace()
    with no_grad():
        # Shared-prompt beam caches: prompt K/V stays at B rows for the
        # whole decode; only per-beam suffix tokens live on the B*G axis.
        caches = model.new_beam_caches()
        # The prompt phase is the one call that differs by architecture.
        encoder_decoder = getattr(model, "prefill_prompts", None)
        if encoder_decoder is None:
            # Decoder-only: left-padded prompts through the prefix cache.
            forwards = 1
            hidden, pad_columns = _prefill_prompts(
                model, prompts, caches, prefix_cache, workspace, sessions
            )
        elif prefix_cache is not None:
            raise ValueError("an encoder-decoder scorer has no prompt K/V for a prefix cache")
        else:
            # Encode, project cross-attention K/V, forward BOS: pad_columns
            # then maps the one-column (BOS) self-attention prompt region.
            hidden, pad_columns, forwards = encoder_decoder(prompts, caches, workspace=workspace)
        # Every beam appends at most one K/V column per remaining level.
        for cache in caches:
            cache.fan_out(1, suffix_length=trie.num_levels - 1)
        # Level 0 is a step from the root: one hypothesis per row, scored
        # 0.0, whose hidden state is the prompt's last.
        state = DecodeState(
            model=model,
            trie=trie,
            num_beams=num_beams,
            caches=caches,
            beam_nodes=np.zeros((len(prompts), 1), dtype=np.int64),
            beam_scores=np.zeros((len(prompts), 1)),
            prompt_pads=pad_columns,
            narrow=narrow,
            pending=np.full((len(prompts), 1), PAD_ID, dtype=np.int64),
            workspace=workspace,
            forwards=forwards,  # what the prompt phase ran
        )
        root = trie.allowed_token_ids(state.beam_nodes.reshape(-1))
        _advance(state, hidden, root, np.ones(len(prompts), dtype=bool))
        workspace.clear()  # prompt-phase scratch: the steps size their own
    return state


def decode_step(state: DecodeState) -> DecodeState:
    """Advance every row of the cohort by one trie level.

    The trie constraint is the live hypotheses' (hypothesis, child) pairs
    (:meth:`IndexTrie.expand` of their nodes).  A cohort at the final level is
    finished: stepping it raises, it is harvested (:func:`decode_finish`).
    Returns ``state`` (mutated in place) for chaining.

    Two fast paths apply:

    * **Forced tokens** — when every live beam's allowed set is a
      singleton (deduplication levels, thin trie branches), the forced
      tokens are appended with *no model forward at all*: under the
      constrained distribution a singleton renormalises to
      log-probability exactly 0.0, so scores and rankings are untouched.
      The skipped tokens accumulate in ``state.pending`` and run through
      the transformer in one combined forward at the next level that
      needs logits — or never, if the trie ends first.
    * **Candidate-only head** — logits are computed for the trie level's
      candidate union only (``TinyLlama.lm_head_gather``) and each
      hypothesis's log-softmax runs over its own children only, replacing
      the full vocabulary GEMM + softmax with one a vocabulary-sized
      factor smaller.
    """
    if state.num_rows == 0:
        raise RuntimeError("cannot step an empty decode state")
    if state.done:
        raise RuntimeError("the cohort is at the final level: retire it, do not step it")
    # Nothing past the width is alive.
    beam_nodes = state.beam_nodes[:, : state.width]
    beam_scores = state.beam_scores[:, : state.width]
    candidates_info = state.trie.allowed_token_ids(beam_nodes.reshape(-1))
    alive = np.isfinite(beam_scores).reshape(-1)
    if candidates_info.is_forced(alive):
        # Every live hypothesis is forced: append without a forward
        # (log-probability 0.0 each), defer the KV update to the next
        # level that needs logits.
        forced = candidates_info.forced_tokens()
        state.beam_nodes = state.trie.first_child[beam_nodes]
        state.beam_scores = beam_scores
        state.pending = np.concatenate([state.pending, forced[:, None]], axis=1)
        return state
    with no_grad():
        hidden = state.model.hidden_states(
            state.pending,
            caches=state.caches,
            pad_columns=state.flat_pad_columns(),
            workspace=state.workspace,
            last_only=True,
        ).data[:, -1, :]
        state.forwards += 1
        state.beam_rows += state.pending.size
        _advance(state, hidden, candidates_info, alive)
    return state


def _advance(
    state: DecodeState, hidden: np.ndarray, candidates_info: SparseCandidates, alive: np.ndarray
) -> None:
    """Select every row's next trie level from its hypotheses' hidden states.

    The decoding rule of both :func:`decode_prefill` (level 0, from the
    root) and :func:`decode_step`, over the (hypothesis, child) pairs of
    the ``alive`` hypotheses: each pair's logit from the gathered head over
    the level's whole union, each hypothesis's constrained log-softmax over
    its own children (:func:`pair_log_softmax`), narrowed rows' path masks
    applied after normalising, then each request's top-``K`` over its pairs
    in pair order — ties go to the earlier origin, then the smaller token.
    Slots past a request's finite pairs hold ``-inf`` on the new depth's
    dead node.  The caches and ``pending`` move onto the new live width.
    ``hidden`` is ``(B*width, dim)`` and ``candidates_info`` the trie's
    continuations of the leading ``width`` slots.
    """
    model, trie = state.model, state.trie
    num_requests, width = state.num_rows, state.width
    nodes = candidates_info.nodes
    counts = np.where(alive, trie.num_children[nodes], 0)
    hypotheses, children = trie.expand(nodes, alive)
    if not children.size:
        raise RuntimeError("no live hypotheses to step")
    logits = model.lm_head_gather(hidden, candidates_info.union, workspace=state.workspace)
    # A pair's logit is its child's union column in its hypothesis's row.
    step_logp = pair_log_softmax(logits[hypotheses, trie.column[children]], counts)
    scores = state.beam_scores[:, :width].reshape(-1)[hypotheses] + step_logp  # float64
    if any(mask is not None for mask in state.narrow):
        everything = np.ones(trie.size, dtype=bool)
        selectable = np.stack([everything if mask is None else mask for mask in state.narrow])
        scores[~selectable[hypotheses // width, children]] = -np.inf
    # Each request's pairs, in pair order, as one row of a -inf padded table.
    per_request = counts.reshape(num_requests, width).sum(axis=1)
    first = np.cumsum(per_request) - per_request
    widest = int(per_request.max())
    table = np.full((num_requests, widest), -np.inf)
    shift = np.repeat(np.arange(num_requests) * widest - first, per_request)
    table.reshape(-1)[np.arange(scores.shape[0]) + shift] = scores
    top, state.beam_scores = topk_desc(table, min(state.num_beams, widest))
    # A slot past its request's pairs repeats the request's last pair for
    # origin and token (filler of a -inf row) on the new depth's dead node.
    pair = np.minimum(first[:, None] + top, (first + per_request - 1)[:, None])
    chosen = children[pair]
    dead = trie.num_real + trie.depth[nodes[0]] + 1
    state.beam_nodes = np.where(np.isfinite(state.beam_scores), chosen, dead)
    # Gather K/V straight onto the next step's width.  A cohort that just
    # finished needs its scores and nodes only: nothing is reordered.
    live = state.live_width()
    if live:
        for cache in state.caches:
            cache.reorder(hypotheses[pair[:, :live]].reshape(-1), live)
        state.pending = trie.token[chosen[:, :live]].reshape(-1, 1)
        if live != width:
            state.workspace.clear()  # scratch of the old shape is released


def decode_finish(state: DecodeState) -> list[list[BeamHypothesis]]:
    """Harvest the finished cohort: one hypothesis list per row, in row order.

    Every row is at the final trie level (a cohort steps in lockstep), and
    its slots are already best first (see :class:`DecodeState`), so this is
    one finite filter and one item / sequence gather for the whole cohort;
    only the :class:`BeamHypothesis` objects are built per hypothesis, and
    ``-inf`` filler beams are dropped.  The K/V and the step scratch are
    released: nothing steps the state again.
    """
    if not state.done:
        raise ValueError("the cohort has not reached the final trie level")
    trie = state.trie
    scores = state.beam_scores
    finite = np.isfinite(scores)
    leaves = state.beam_nodes[finite] - trie.level_start[-2]  # leaf order
    hypotheses = map(
        BeamHypothesis,
        map(trie.sequences.__getitem__, leaves.tolist()),
        scores[finite].tolist(),
        trie.items[leaves].tolist(),
    )
    state.caches = []
    state.workspace.clear()
    return [list(itertools.islice(hypotheses, n)) for n in finite.sum(axis=1).tolist()]


def constrained_log_probs(logits_row: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per-beam constrained log-softmax over the allowed token ids only.

    The one-hypothesis form of :func:`pair_log_softmax` (bit for bit),
    shared by the single-request oracles (here and in
    ``TIGER._beam_search``) so a numerics change to the constrained-scoring
    semantics cannot diverge between them.
    """
    raw = logits_row[allowed]
    shifted = raw - raw.max()
    return shifted - np.log(np.exp(shifted).sum())


def beam_search_items_single(
    model: TinyLlama, prompt_ids: list[int], trie: IndexTrie, beam_size: int = 20
) -> list[BeamHypothesis]:
    """Reference single-request beam search (pre-batching implementation).

    Kept as the parity oracle for the batched engine (``tests/`` and the
    ledger's ``correct`` gate compare against it).  Scores follow the
    constrained-log-softmax semantics of the module docstring: each level
    renormalises over the tokens the trie allows for that beam, which is
    what a ``prefix_allowed_tokens_fn`` logits processor computes in the
    reference implementations.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be positive")
    num_levels = trie.num_levels
    with no_grad():
        caches = model.new_caches()
        prompt = np.asarray(prompt_ids, dtype=np.int64)[None, :]
        logits = model.forward(prompt, caches=caches).data[:, -1, :]

        # Level 0 expansion from the single prompt beam.
        allowed = trie.allowed_tokens(())
        scores = constrained_log_probs(logits[0], allowed)
        k = min(beam_size, len(allowed))
        top = np.argsort(-scores)[:k]
        beam_tokens = [(int(allowed[i]),) for i in top]
        beam_scores = scores[top].astype(np.float64)
        for cache in caches:
            cache.reorder(np.zeros(k, dtype=np.int64))

        for _ in range(1, num_levels):
            last = np.array([t[-1] for t in beam_tokens], dtype=np.int64)[:, None]
            step_logits = model.forward(last, caches=caches).data[:, -1, :]

            candidate_scores: list[float] = []
            candidate_origin: list[int] = []
            candidate_token: list[int] = []
            for beam_index, prefix in enumerate(beam_tokens):
                allowed = trie.allowed_tokens(prefix)
                step_logp = constrained_log_probs(step_logits[beam_index], allowed)
                for token, token_logp in zip(allowed, step_logp):
                    candidate_scores.append(beam_scores[beam_index] + token_logp)
                    candidate_origin.append(beam_index)
                    candidate_token.append(int(token))
            order = np.argsort(-np.asarray(candidate_scores))[:beam_size]
            beam_tokens = [beam_tokens[candidate_origin[i]] + (candidate_token[i],) for i in order]
            beam_scores = np.asarray([candidate_scores[i] for i in order])
            origins = np.asarray([candidate_origin[i] for i in order])
            for cache in caches:
                cache.reorder(origins)

    hypotheses = []
    for tokens, score in zip(beam_tokens, beam_scores):
        item_id = trie.item_at(tokens)
        hypotheses.append(BeamHypothesis(tokens, float(score), item_id))
    hypotheses.sort(key=lambda h: -h.score)
    return hypotheses


def greedy_generate(
    model: TinyLlama,
    prompt_ids: list[int],
    max_new_tokens: int,
    eos_id: int,
) -> list[int]:
    """Greedy free-text generation (used by the Fig. 5 case study)."""
    with no_grad():
        caches = model.new_caches()
        tokens = np.asarray(prompt_ids, dtype=np.int64)[None, :]
        logits = model.forward(tokens, caches=caches).data[:, -1, :]
        generated: list[int] = []
        for _ in range(max_new_tokens):
            next_id = int(logits[0].argmax())
            if next_id == eos_id:
                break
            generated.append(next_id)
            step = np.asarray([[next_id]], dtype=np.int64)
            logits = model.forward(step, caches=caches).data[:, -1, :]
    return generated


def sequence_logprob(
    model: TinyLlama,
    prompt_ids: list[int],
    continuation_ids: list[int],
) -> float:
    """Mean per-token log probability of ``continuation_ids`` given ``prompt_ids``.

    Used for the Table V pairwise discrimination task: the model "chooses"
    whichever candidate response it assigns the higher (length-normalised)
    log likelihood.
    """
    if not continuation_ids:
        raise ValueError("continuation must be non-empty")
    full = np.asarray(prompt_ids + continuation_ids, dtype=np.int64)[None, :]
    with no_grad():
        # Throwaway caches: what puts a no-grad forward on the inference kernel.
        logits = model.forward(full, caches=model.new_caches()).data[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    start = len(prompt_ids) - 1
    total = 0.0
    for offset, token in enumerate(continuation_ids):
        total += float(log_probs[start + offset, token])
    return total / len(continuation_ids)
