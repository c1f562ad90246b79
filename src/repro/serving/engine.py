"""The engine boundary: one serving stack for every generative recommender.

:class:`GenerativeEngine` is the protocol between the serving layer (queue,
micro-batcher, :class:`repro.serving.RecommendationService`) and a concrete
generative recommendation model.  Its decode contract is one call:
:meth:`GenerativeEngine.decode` takes a closed cohort of requests (one
effective beam width) and returns every request's hypotheses, best first.
Trie-constrained generation is a fixed-depth, level-synchronous beam search
(paper Sec. III-D2), so a cohort runs from prompt to final level together
and nothing joins or leaves it on the way.

Around that call sit the capability flag ``supports_narrowing``, the
template count ``num_templates``, the optional ``prefix_cache`` and the
request-shaping hooks (``encode_history``, ``request_beam_size``,
``effective_len``, ``finalize``) that keep model-specific text rendering,
beam policy and ranking post-processing out of the service.

Three adapters ship with the repo, all on one stepper
(:func:`repro.llm.decode_prefill` / ``decode_step`` / ``decode_finish``
over a :class:`repro.llm.generation.Scorer`); each one's ``decode`` is
``prefill``, ``step`` to the final level, ``retire``:

====================  ================================================
adapter               scorer
====================  ================================================
:class:`LCRecEngine`  decoder-only :class:`~repro.llm.TinyLlama`
:class:`P5CIDEngine`  decoder-only :class:`~repro.llm.TinyLlama`
:class:`TIGEREngine`  encoder-decoder :class:`~repro.baselines.TIGER`
====================  ================================================

Every adapter serves every mode, in closed cohorts.

Every adapter is ranking-preserving: batching is a cost optimisation, never
an approximation, and the parity suites pin each adapter to a
single-request oracle that does not run the stepper: the dense
``beam_search_items_single`` for LC-Rec and, composed with one widen and
the backfill, for P5-CID (whose ``P5CID.recommend`` is this engine), and
``TIGER.recommend`` for TIGER.

Writing a new adapter means implementing ``encode_history`` and ``decode``
— by delegating to the shared stepper if the model can be its scorer (as
all three above do), or with any decoder of your own; the service,
micro-batcher and bench runners then work unchanged.  ``docs/serving.md``
has a walkthrough.

Thread safety: engines are driven under the service's decode lock; they
are not required to be thread-safe beyond what their prefix cache already
guarantees.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from ..core.templates import SEQ_TEMPLATES, seq_instruction
from ..llm import (
    BeamHypothesis,
    DecodeState,
    PrefixKVCache,
    backfill_items,
    decode_finish,
    decode_prefill,
    decode_step,
    ranked_item_ids,
)
from ..quantization.trie import IndexTrie
from .queue import RecommendRequest, check_history, check_template_id

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids cycles at runtime
    from ..baselines.p5cid import P5CID
    from ..baselines.tiger import TIGER
    from ..core.lcrec import LCRec
    from ..llm.model import TinyLlama

__all__ = [
    "GenerativeEngine",
    "TrieDecoderEngine",
    "LCRecEngine",
    "P5CIDEngine",
    "TIGEREngine",
]


class GenerativeEngine(abc.ABC):
    """Backend adapter driven by :class:`repro.serving.RecommendationService`.

    Subclasses wrap one built generative recommender and translate the
    serving layer's request/decode vocabulary into the model's own.  The
    base class supplies the default ranking :meth:`finalize` and batch-free
    conveniences (:meth:`recommend_many`, :meth:`rank_prompts`) on top of
    the one abstract decode call, :meth:`decode`.

    Capabilities
    ------------
    ``prefix_cache``
        The :class:`repro.llm.PrefixKVCache` the engine seeds prompt K/V
        from, or ``None`` (the decoder-only engines take one).
    :meth:`replicate`
        Worker-private copies of this engine — shared (read-only at
        serving time) model weights, but private mutable serving state:
        prefix K/V cache, gathered output-head
        :class:`repro.tensor.WeightMemo`, step workspaces.  What
        :class:`repro.serving.ServingCluster` calls to provision one
        engine per worker thread without cloning the weights; every
        shipped engine implements it.
    ``supports_narrowing``
        Whether :meth:`decode` restricts each request's decode to its
        ``narrow_items`` (retrieval-narrowed decode): beam *selection* is
        limited to the candidates' index sequences while scores keep
        renormalising over the full trie, so the ranking over the candidate
        set is identical to a full decode filtered post hoc.
    ``num_templates``
        How many prompt templates ``encode_history`` renders; a
        ``template_id`` outside ``[0, num_templates)`` is refused at submit.
    """

    name: str = "engine"
    supports_narrowing: bool = False
    prefix_cache: PrefixKVCache | None = None
    default_beam_size: int = 20
    num_templates: int = 1

    # ------------------------------------------------------------------
    # Capabilities and request shaping
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_items(self) -> int:
        """Catalog size (for beam clamping and ranking backfill)."""

    def request_beam_size(self, top_k: int) -> int:
        """The beam width a request submitted with ``top_k`` decodes with.

        Fixed per request at submit time (never widened by co-batched
        requests) so results match the per-request path regardless of
        batch composition.
        """
        return max(self.default_beam_size, top_k)

    def effective_beams(self, beam_size: int) -> int:
        """The beam width a request actually decodes with (engine clamp)."""
        return min(beam_size, self.num_items)

    def effective_len(self, request: RecommendRequest) -> int:
        """Per-request decode-cost model for micro-batch length bucketing.

        Engines with a prefix cache override this with the *post-cache*
        length (prompt length minus the cached prefix the decode will
        skip), so near-full cache hits are not co-batched with misses that
        would dictate the padded width anyway.
        """
        return request.prompt_len

    def replicate(self) -> "GenerativeEngine":
        """A worker-private copy of this engine (cluster provisioning).

        The copy must share the model *weights* (no memory blow-up per
        worker) but own every piece of mutable serving state the decode
        path touches — prefix K/V cache, gathered-weight memos, scratch
        workspaces — so N workers can decode concurrently without their
        caches racing.  Rankings from a replica are identical to the
        original's.  An engine without one cannot be handed to a
        multi-worker cluster: pass a factory instead.
        """
        raise NotImplementedError(
            f"engine {self.name!r} does not support replication; pass an engine factory "
            "callable to provision workers independently"
        )

    # ------------------------------------------------------------------
    # Request encoding
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def encode_history(self, history: Sequence[int], template_id: int = 0) -> list[int]:
        """Encode an interaction history into this engine's prompt ids."""

    def encode_instruction(self, instruction: str) -> list[int]:
        """Encode an already-rendered instruction (language engines only)."""
        raise NotImplementedError(f"{type(self).__name__} does not take free-form instructions")

    def encode_intention(self, intention_text: str) -> list[int]:
        """Encode an intention query (language engines only)."""
        raise NotImplementedError(f"{type(self).__name__} does not take intention queries")

    # ------------------------------------------------------------------
    # The decode contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def decode(self, requests: Sequence[RecommendRequest]) -> list[list[BeamHypothesis]]:
        """Decode one closed cohort: each request's hypotheses, best first.

        All requests of one cohort must agree on effective beam width (a
        request's rankings must never depend on who it is co-batched
        with, and beam width changes rankings).  No requests, no decode.
        """

    def finalize(
        self,
        requests: Sequence[RecommendRequest],
        all_hypotheses: Sequence[list[BeamHypothesis]],
    ) -> list[list[int]]:
        """Turn decoded hypotheses into each request's ranked item ids.

        The default is plain score-ordered dedup (what ``LCRec.recommend``
        returns).  Engines that guarantee full ``top_k`` lists override
        this with widen-and-backfill (see :func:`widen_and_backfill`);
        overrides may re-decode, so callers must not hold model state
        across the call.
        """
        return [
            ranked_item_ids(hypotheses, request.top_k)
            for request, hypotheses in zip(requests, all_hypotheses)
        ]

    def rank_prompts(self, prompts: Sequence[Sequence[int]], top_k: int = 10) -> list[list[int]]:
        """Decode already-encoded prompts into ranked item-id lists."""
        requests = [
            RecommendRequest(
                prompt_ids=list(prompt), top_k=top_k, beam_size=self.request_beam_size(top_k)
            )
            for prompt in prompts
        ]
        return self.finalize(requests, self.decode(requests))

    def recommend_many(
        self, histories: Sequence[Sequence[int]], top_k: int = 10
    ) -> list[list[int]]:
        """Batched next-item recommendation: one decode for all histories."""
        for history in histories:
            check_history(history, self.num_items)
        prompts = [self.encode_history(list(history)) for history in histories]
        return self.rank_prompts(prompts, top_k=top_k)


def widen_and_backfill(
    engine: GenerativeEngine,
    requests: Sequence[RecommendRequest],
    all_hypotheses: Sequence[list[BeamHypothesis]],
) -> list[list[int]]:
    """Rankings padded to ``top_k`` ids: widen short beams, then backfill.

    Constrained decoding can surface fewer than ``top_k`` unique items — a
    narrow trie level starves the beam mid-search — and ranking metrics
    treat a short list as misses at the missing ranks.  Rows that come up
    short are re-decoded once with the beam widened to the full catalog
    (all short rows of the batch in one decode), and any residual
    shortfall is backfilled deterministically with the smallest unused
    item ids.  This is the batched equivalent of ``TIGER.recommend``'s
    retry and matches it ranking-for-ranking (``P5CID.recommend`` runs
    this function through its engine).
    """
    num_items = engine.num_items
    rankings = [
        ranked_item_ids(hypotheses, request.top_k)
        for request, hypotheses in zip(requests, all_hypotheses)
    ]
    short = [
        row
        for row, (request, ranked) in enumerate(zip(requests, rankings))
        if len(ranked) < min(request.top_k, num_items) and request.beam_size < num_items
    ]
    if short:
        widened = engine.decode([replace(requests[row], beam_size=num_items) for row in short])
        for row, hypotheses in zip(short, widened):
            rankings[row] = ranked_item_ids(hypotheses, requests[row].top_k)
    return [
        backfill_items(ranked, request.top_k, num_items)
        for request, ranked in zip(requests, rankings)
    ]


def _require_uniform_beams(engine: GenerativeEngine, requests: Sequence[RecommendRequest]) -> int:
    if not requests:
        raise ValueError("need at least one request")
    widths = {engine.effective_beams(request.beam_size) for request in requests}
    if len(widths) != 1:
        raise ValueError("co-batched requests must share an effective beam width")
    return widths.pop()


def _decode_cohort(engine, requests: Sequence[RecommendRequest]) -> list[list[BeamHypothesis]]:
    """The stepper engines' ``decode``: prefill, step to the final level, retire."""
    requests = list(requests)
    if not requests:
        return []
    state = engine.prefill(requests)
    while not state.done:
        engine.step(state)
    return engine.retire(state)


# ----------------------------------------------------------------------
# Decoder-only adapters: the shared DecodeState stepper
# ----------------------------------------------------------------------
class TrieDecoderEngine(GenerativeEngine):
    """Engine over a decoder-only :class:`TinyLlama` plus an index trie.

    Wraps the :class:`repro.llm.DecodeState` stepper
    (:func:`decode_prefill` / :func:`decode_step` / :func:`decode_finish`),
    which is why every decoder-only backend gets batched serving and the
    prefix KV cache for free — LC-Rec and
    P5-CID differ only in how they render a history into prompt ids and
    how rankings are post-processed.
    """

    supports_narrowing = True

    def __init__(
        self,
        lm: "TinyLlama",
        trie: IndexTrie,
        prefix_cache: PrefixKVCache | bool | None = None,
        default_beam_size: int = 20,
    ):
        self.lm = lm
        self.catalog = None
        self.trie = trie
        self.default_beam_size = default_beam_size
        # True asks for a fresh cache; None serves without one.
        if not (prefix_cache is None or prefix_cache is True
                or isinstance(prefix_cache, PrefixKVCache)):
            raise TypeError(
                f"prefix_cache must be a PrefixKVCache, True or None, got {prefix_cache!r}"
            )
        self.prefix_cache = PrefixKVCache() if prefix_cache is True else prefix_cache

    @property
    def trie(self) -> IndexTrie:
        """The active decoding trie.

        With a live catalog attached (:meth:`attach_catalog`) this reads
        the *current catalog version's* trie — one read is the version
        pin: a decode state built from it keeps that trie object for its
        whole life (``DecodeState.trie``), while later reads observe
        swaps.  Without a catalog it is the static trie the engine was
        constructed with.
        """
        if self.catalog is not None:
            return self.catalog.version.trie
        return self._trie

    @trie.setter
    def trie(self, value: IndexTrie) -> None:
        self._trie = value

    def attach_catalog(self, catalog) -> None:
        """Serve from a :class:`repro.core.LiveCatalog` (or detach with None).

        Every read of :attr:`trie` then follows the catalog's atomic
        version swaps: the first prefill after an ingestion decodes over
        the new item's trie, while decodes already in flight finish
        against the trie object they prefilled with.  ``replicate()``
        copies share the catalog reference, so one cluster-wide ingestion
        propagates to every worker for free.
        """
        self.catalog = catalog

    @property
    def num_items(self) -> int:
        return self.trie.num_items

    def effective_beams(self, beam_size: int) -> int:
        return min(beam_size, self.trie.num_items, self.lm.vocab_size)

    def effective_len(self, request: RecommendRequest) -> int:
        if self.prefix_cache is None:
            return request.prompt_len
        cached = self.prefix_cache.probe(request.prompt_ids, max_len=request.prompt_len - 1)
        return request.prompt_len - cached

    def replicate(self) -> "TrieDecoderEngine":
        """A worker-private engine: shared weights, private caches.

        The language model is replaced by a serving replica (same
        parameter arrays, fresh gathered-head :class:`WeightMemo`), and
        the prefix K/V cache — if the original has one — by a fresh,
        equally-sized private instance: cross-worker K/V sharing would
        need locking on the decode hot path, and the cluster's affinity
        router exists precisely so one session's refreshes keep hitting
        the same worker's cache, whose radix nodes store each prompt
        column its sessions share once.  The trie is shared: it is immutable.
        Works for subclasses too (``copy.copy``
        keeps their extra attributes, e.g. the model reference the
        encoders use).
        """
        clone = copy.copy(self)
        clone.lm = self.lm.serving_replica()
        if self.prefix_cache is not None:
            clone.prefix_cache = PrefixKVCache(
                max_entries=self.prefix_cache.max_entries,
                min_prefix_len=self.prefix_cache.min_prefix_len,
            )
        return clone

    def encode_history(self, history: Sequence[int], template_id: int = 0) -> list[int]:
        """A bare trie-decoder engine serves pre-encoded prompts only.

        Model adapters (:class:`LCRecEngine`, :class:`P5CIDEngine`)
        override this with their own history-to-prompt rendering; the bare
        engine is for raw-prompt workloads (``rank_prompts`` or
        hand-built :class:`RecommendRequest`\\ s).
        """
        raise NotImplementedError(
            "TrieDecoderEngine has no history rendering; use rank_prompts or a model adapter"
        )

    # -- decode contract -----------------------------------------------
    def decode(self, requests: Sequence[RecommendRequest]) -> list[list[BeamHypothesis]]:
        return _decode_cohort(self, requests)

    def prefill(self, requests: Sequence[RecommendRequest]) -> DecodeState:
        """The prompt phase and level-0 expansion of one cohort."""
        requests = list(requests)
        num_beams = _require_uniform_beams(self, requests)
        # One trie read pins this decode's catalog version: the state
        # carries the object through every step to the finish.
        trie = self.trie
        return decode_prefill(
            self.lm,
            [request.prompt_ids for request in requests],
            trie,
            beam_size=num_beams,  # this engine's clamp, not the stepper's
            prefix_cache=self.prefix_cache,
            narrow=[request.narrow_items for request in requests],
            # A session's next prompt extends this one: store its K/V whole,
            # in place of the session's previous prompt.
            sessions=[request.session_key for request in requests],
        )

    def step(self, state: DecodeState) -> None:
        """Advance the cohort one trie level."""
        decode_step(state)

    def retire(self, state: DecodeState) -> list[list[BeamHypothesis]]:
        """Harvest the finished cohort, one hypothesis list per request."""
        return decode_finish(state)

    # ------------------------------------------------------------------
    # Tracer seams: no serving path calls these.  ``perf/tracing.py`` wraps
    # them by name (``serving.engine.join`` / ``serving.engine.retire``),
    # so they stay, raising, until those wrappers are dropped; see also
    # the module-level block at the end.
    # ------------------------------------------------------------------
    def join(self, state: DecodeState, incoming: DecodeState) -> None:
        """Deleted: a decode is a closed cohort, nothing joins it."""
        raise NotImplementedError("a decode is a closed cohort: nothing joins a live decode")

    def finish(self, state: DecodeState) -> None:
        """Deleted: :meth:`retire` harvests the whole finished cohort."""
        raise NotImplementedError("retire harvests the finished cohort")


class LCRecEngine(TrieDecoderEngine):
    """The LC-Rec adapter: instruction rendering plus the shared stepper.

    ``LCRecEngine(model)`` (prefix cache on by default) is how a
    :class:`repro.serving.RecommendationService` stands over a built
    :class:`repro.core.LCRec`.
    """

    name = "lcrec"
    num_templates = len(SEQ_TEMPLATES)

    def __init__(self, model: "LCRec", prefix_cache: PrefixKVCache | bool | None = True):
        model._require_built()
        super().__init__(
            model.lm,
            model.trie,
            prefix_cache=prefix_cache,
            default_beam_size=model.config.beam_size,
        )
        self.model = model

    def encode_history(self, history: Sequence[int], template_id: int = 0) -> list[int]:
        """The prompt of SEQ template ``template_id`` over the live index set.

        With a catalog attached that is the current version's: an ingested
        id passes ``check_history`` (the live item count) but is not in the
        model's build-time index set.
        """
        check_template_id(template_id, self.num_templates)
        index_set = self.model.index_set if self.catalog is None else self.catalog.version.index_set
        instruction = seq_instruction(
            index_set, history, self.model.config.tasks.max_history, template_id
        )
        return self.encode_instruction(instruction)

    def encode_instruction(self, instruction: str) -> list[int]:
        return self.model.encode_instruction(instruction)

    def encode_intention(self, intention_text: str) -> list[int]:
        return self.encode_instruction(self.model.intention_instruction(intention_text))


class P5CIDEngine(TrieDecoderEngine):
    """The P5-CID adapter: collaborative-ID prompts over the shared stepper.

    P5-CID's decoder-only LM speaks the same decode contract as LC-Rec, so
    the adapter inherits batched serving and (optionally) the prefix
    cache; only the prompt rendering (BOS + history ids + SEP, no natural
    language) and the full-``top_k`` ranking guarantee differ.
    """

    name = "p5cid"

    def __init__(self, model: "P5CID", prefix_cache: PrefixKVCache | bool | None = None):
        super().__init__(
            model.lm,
            model.trie,
            prefix_cache=prefix_cache,
            default_beam_size=model.config.beam_size,
        )
        self.model = model

    def encode_history(self, history: Sequence[int], template_id: int = 0) -> list[int]:
        return self.model._example(list(history), None)[0]

    def finalize(self, requests, all_hypotheses) -> list[list[int]]:
        return widen_and_backfill(self, requests, all_hypotheses)


# ----------------------------------------------------------------------
# TIGER: the same stepper over an encoder-decoder scorer
# ----------------------------------------------------------------------
class TIGEREngine(GenerativeEngine):
    """The TIGER adapter: request shaping over the shared stepper.

    The model itself is the stepper's scorer
    (:class:`repro.llm.generation.Scorer`): each prefill encodes the whole
    micro-batch's histories in one bidirectional encoder forward (pad
    columns masked as keys, so batching never changes any row's memory),
    projects every request's cross-attention K/V once and forwards BOS;
    each step then forwards only the live beams' newest tokens through
    KV caches.  Beam selection, trie masking, forced levels and narrowing
    are the stepper's, as for the decoder-only adapters.  Rankings match
    ``TIGER.recommend`` request-for-request, including its widen-to-catalog
    retry and deterministic backfill.
    """

    name = "tiger"
    supports_narrowing = True

    def __init__(self, model: "TIGER"):
        self.model = model
        self.trie = model.trie
        self.default_beam_size = model.config.beam_size

    @property
    def num_items(self) -> int:
        return self.trie.num_items

    def replicate(self) -> "TIGEREngine":
        """A worker-private engine over a serving replica of the model.

        All decode state lives in the :class:`repro.llm.DecodeState` of one
        decode; the only cross-decode mutable state is the model's
        gathered-head memo, which the serving replica privatizes (weights
        stay shared).
        """
        clone = copy.copy(self)
        clone.model = self.model.serving_replica()
        return clone

    def encode_history(self, history: Sequence[int], template_id: int = 0) -> list[int]:
        return self.model.encode_history(list(history))

    # -- decode contract -----------------------------------------------
    # Own definitions, not a base shared with TrieDecoderEngine: the ledger's
    # tracer patches both classes, and an inherited method is timed twice.
    def decode(self, requests: Sequence[RecommendRequest]) -> list[list[BeamHypothesis]]:
        return _decode_cohort(self, requests)

    def prefill(self, requests: Sequence[RecommendRequest]) -> DecodeState:
        """Encode the cohort's histories, project cross K/V, forward BOS, expand level 0."""
        requests = list(requests)
        return decode_prefill(
            self.model,
            [request.prompt_ids for request in requests],
            self.trie,
            beam_size=_require_uniform_beams(self, requests),
            narrow=[request.narrow_items for request in requests],
        )

    def step(self, state: DecodeState) -> None:
        """Advance the cohort one trie level."""
        decode_step(state)

    def retire(self, state: DecodeState) -> list[list[BeamHypothesis]]:
        """Harvest the finished cohort, one hypothesis list per request."""
        return decode_finish(state)

    def finalize(self, requests, all_hypotheses) -> list[list[int]]:
        return widen_and_backfill(self, requests, all_hypotheses)


# ----------------------------------------------------------------------
# Tracer seams: no serving path calls these.  ``perf/tracing.py`` wraps
# ``decode_join`` and ``decode_retire`` here (``llm.generation.join`` /
# ``llm.generation.retire``) and ``TrieDecoderEngine.join`` / ``finish`` by
# name, so all four stay, raising, until those wrappers are dropped.
# ----------------------------------------------------------------------
def decode_join(state: DecodeState, incoming: DecodeState) -> None:
    """Deleted: a decode is a closed cohort, nothing joins it."""
    raise NotImplementedError("a decode is a closed cohort: nothing joins a live decode")


def decode_retire(state: DecodeState, rows: Sequence[int]) -> None:
    """Deleted: :func:`repro.llm.decode_finish` harvests the whole finished cohort."""
    raise NotImplementedError("a cohort is harvested whole: use decode_finish")
