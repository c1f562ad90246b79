"""The serving facade: queue in front, a generative engine behind.

:class:`RecommendationService` is the deployment-shaped entry point to any
generative recommender wrapped in a :class:`repro.serving.GenerativeEngine`
(LC-Rec, TIGER, P5-CID, or your own adapter): callers ``submit``
interaction histories and read the next-item rankings from the returned
:class:`PendingRecommendation`.

Every way of serving decodes closed cohorts the same way, one at a time
under the decode lock — shed the expired requests, one
:meth:`GenerativeEngine.decode` call, ``engine.finalize``, deliver — so
the stats and the error handling are written once.  What differs is the
admission policy, *which requests form the next cohort, and when*:

* **Closed batches** — the queue is drained, the micro-batcher plans it
  into batches, and each batch is one cohort.  Synchronous
  :meth:`RecommendationService.flush` (or ``result()`` on a stopped
  service) does this on the caller's thread: zero threads,
  deterministic batching, what tests and offline evaluation use.  The
  ``mode="deadline"`` background thread (:meth:`RecommendationService.start`,
  the default) does it as soon as a full micro-batch is waiting *or* the
  oldest request exceeds the ``deadline_ms`` latency budget, whichever
  comes first; callers block in ``PendingRecommendation.result(timeout=...)``
  and :meth:`stop` drains in-flight work and joins the thread.
* **Continuous** (``mode="continuous"``) — no deadline wait: the
  background thread parks in :meth:`RequestQueue.await_request` while the
  queue is empty and otherwise pops the FIFO head at once, up to
  ``max_batch_size`` requests of one beam width, as the next cohort.  A
  request that arrives mid-cohort waits for that one decode to finish.

Results are identical to the engine's single-request oracle in every mode
— batching, deadlines and admission order change the cost, never the
math.  Engines with a ``prefix_cache`` additionally skip re-running
prompt prefixes they have decoded before; see ``docs/serving.md`` for
tuning and invalidation.

Thread safety: ``submit`` may be called from any number of threads in
any mode, and ``flush`` may race the background loop (cohorts are decoded
one at a time on an internal lock, and each request is delivered exactly
once).
``start``/``stop`` are serialized on a lifecycle lock and may be called
from any thread (``stop`` is idempotent, including under concurrent
callers); handles are safe to share between threads.
"""

from __future__ import annotations

import ctypes
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..llm import PrefixKVCache
from .api import (
    FallbackRecommender,
    PendingRecommendation,
    RecommendationClient,
    turn_away,
)
from .batcher import MicroBatcher, MicroBatcherConfig, padding_fraction
from .engine import GenerativeEngine
from .queue import (
    RecommendRequest,
    RequestQueue,
    check_deadline_ms,
    check_history,
    check_template_id,
    check_top_k,
)

__all__ = [
    "ServingStats",
    "RecommendationService",
]


@dataclass
class ServingStats:
    """O(1)-memory counters of one service (the ledger and tests read them).

    ``size_flushes``/``deadline_flushes`` count what triggered each
    deadline-mode background flush: a full batch waiting vs the oldest
    request aging past the latency budget.  Synchronous ``flush()`` calls
    count in neither.  ``batches`` and ``admissions`` both count decoded
    cohorts (one ``engine.decode`` call each).  ``joins`` is always 0: no request
    joins a live decode (kept for the perf ledger, which reads it).

    ``padding_fraction_sum`` accumulates per-batch padding fractions over
    the engine's *effective* lengths (post-prefix-cache, for engines with
    a cache) — the columns the decode actually forwards — so the mean
    reflects real decode cost, not raw prompt shapes.

    ``shed_*``, ``degraded_*`` and ``hybrid_retrieval`` count requests
    turned away from the decode (:func:`repro.serving.api.turn_away`; the
    reason → counter → tier table is in ``docs/serving.md``, "Turning a
    request away"): shed ones failed with a typed
    :class:`repro.serving.Overloaded`, the rest served from a retrieval
    tier — served and shed are disjoint, and neither counts in
    ``requests`` or ``batches``.  ``hybrid_narrowed`` counts history
    submits queued narrowed to their retrieval candidates.

    ``decode_seconds`` / ``finalize_seconds`` attribute decode-path wall
    time to its two engine calls: the cohort's decode (prompt phase,
    prefix-cache matching and every trie level) and ranking
    post-processing (which may re-decode for widen-and-backfill engines).
    Queue wait and thread handoff are deliberately excluded — these are
    engine-cost counters; the perf ledger's spans split the decode further.
    """

    requests: int = 0
    batches: int = 0
    padding_fraction_sum: float = 0.0
    size_flushes: int = 0
    deadline_flushes: int = 0
    admissions: int = 0
    joins: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    degraded_queue_full: int = 0
    degraded_deadline: int = 0
    degraded_cold_start: int = 0
    hybrid_narrowed: int = 0
    hybrid_retrieval: int = 0
    decode_seconds: float = 0.0
    finalize_seconds: float = 0.0

    def count(self, counter: str) -> None:
        """Move one outcome counter by one (:func:`repro.serving.api.turn_away`)."""
        setattr(self, counter, getattr(self, counter) + 1)

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def mean_padding_fraction(self) -> float:
        return self.padding_fraction_sum / self.batches if self.batches else 0.0


def _release_freed_heap() -> None:
    """Return freed heap pages to the OS before a decode thread starts.

    A thread allocates from its own malloc arena, so what a model build
    freed on the starting thread is memory the decode thread never reuses,
    and glibc by itself trims only the top of that heap: ≈ 25 MB stayed
    resident on the serving ledger or not, as the heap's layout fell out.
    Other C libraries lack the symbol.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass


class RecommendationService(RecommendationClient):
    """Micro-batched recommendation serving over a :class:`GenerativeEngine`.

    Synchronous use (explicit flush)::

        service = RecommendationService(LCRecEngine(model))
        pending = [service.submit(h) for h in histories]
        service.flush()
        rankings = [p.result() for p in pending]

    Asynchronous use (deadline-batched background flushing)::

        with RecommendationService(LCRecEngine(model), deadline_ms=25.0) as service:
            pending = [service.submit(h) for h in histories]   # any thread
            rankings = [p.result(timeout=5.0) for p in pending]
        # __exit__ -> stop(): drains in-flight work, joins the thread

    The service holds no model-specific code: request encoding, beam
    policy, the decode itself, and ranking post-processing all live behind
    the engine protocol, so TIGER and P5-CID (and any future backend)
    serve through the exact same queue/batcher machinery.

    Parameters
    ----------
    engine:
        A :class:`GenerativeEngine` adapter (``LCRecEngine(model)``,
        ``TIGEREngine(model)``, ``P5CIDEngine(model)``, ...).  Passing a
        bare model raises ``TypeError`` — wrap it first.
    batcher:
        Micro-batching policy; see :class:`MicroBatcherConfig`.
    deadline_ms:
        Async latency budget: the background loop flushes once the oldest
        queued request has waited this long (a full batch flushes sooner).
        Ignored by the continuous loop, which admits as soon as it is idle.
    queue_depth:
        Admission-control bound on how many requests may wait in the
        queue at once (``None`` = unbounded, the default).  A submit that
        finds the queue full is refused with a handle already failed with
        a typed :class:`repro.serving.Overloaded` (reason
        ``"queue_full"``) instead of queueing unboundedly — what keeps
        worst-case latency bounded under overload.
    hybrid:
        Optional :class:`repro.retrieval.HybridRecommender` — the
        retrieval-narrowed decode lane.  When set, each submit first asks the
        hybrid's retrieval tier for candidates: cold-start histories (no
        profile) and histories with no decodable candidates are answered
        from retrieval immediately (a handle born ``degraded``,
        ``degraded_reason`` ``"cold_start"`` / ``"no_candidates"``);
        everything else is stamped with the candidate tuple
        (``narrow_items``), which the engine turns into that decode row's
        node mask — beside requests narrowed to other sets, or to none —
        then backfilled exactly as :meth:`HybridRecommender.recommend`
        would: the library call stamps and decodes its requests the same
        way, so both return identical rankings.  Requires an
        engine with ``supports_narrowing``; the hybrid's own engine is
        not used for decoding (only its retriever and backfill rule), so
        one hybrid object can be shared across cluster workers.
    mode:
        The background thread's admission policy: ``"deadline"`` (default)
        decodes closed deadline-batched flushes; ``"continuous"`` decodes
        the queue's head at once, up to ``max_batch_size`` requests of one
        beam width, with no deadline wait.  Synchronous ``flush()`` and rankings are identical
        in both modes.
    fallback:
        Optional :class:`repro.serving.FallbackRecommender` — the
        retrieval fast lane.  When set, a request that admission control
        would shed (full queue at submit, or shed deadline passed while
        queued) is *served* from the fallback instead of rejected: its
        handle resolves with the fallback ranking and ``degraded=True``.
        An empty history is answered from it at submit
        (``degraded_reason="cold_start"``) without costing a decode slot.
        ``None`` (default) sheds with ``Overloaded``.

    Thread safety: see the module docstring.  Every cohort decodes under
    one internal lock, so a concurrent ``flush()`` and background loop never
    interleave inside the engine.
    """

    def __init__(
        self,
        engine: GenerativeEngine,
        batcher: MicroBatcherConfig | None = None,
        deadline_ms: float = 25.0,
        mode: str = "deadline",
        queue_depth: int | None = None,
        fallback: FallbackRecommender | None = None,
        hybrid=None,
    ):
        if not isinstance(engine, GenerativeEngine):
            raise TypeError(
                "RecommendationService requires a GenerativeEngine adapter, got "
                f"{type(engine).__name__}; wrap the model first, e.g. "
                "RecommendationService(LCRecEngine(model))"
            )
        check_deadline_ms(deadline_ms)
        if mode not in ("deadline", "continuous"):
            raise ValueError(f"mode must be 'deadline' or 'continuous', got {mode!r}")
        if hybrid is not None and not engine.supports_narrowing:
            raise ValueError(
                f"engine {engine.name!r} does not support candidate narrowing; "
                "the hybrid lane needs supports_narrowing"
            )
        self.engine = engine
        self.fallback = fallback
        self.hybrid = hybrid
        self.batcher = MicroBatcher(batcher)
        self.queue = RequestQueue(max_depth=queue_depth)
        self.stats = ServingStats()
        self.deadline_ms = float(deadline_ms)
        self.mode = mode
        self._pending: dict[int, PendingRecommendation] = {}
        self._pending_lock = threading.Lock()
        self._decode_lock = threading.Lock()
        self._lifecycle = threading.Lock()
        self._stop = threading.Event()
        self._drain_on_stop = True
        self._worker: threading.Thread | None = None

    @property
    def prefix_cache(self) -> PrefixKVCache | None:
        """The engine's cross-request prompt prefix cache, if any."""
        return self.engine.prefix_cache

    @property
    def backlog(self) -> int:
        """Undelivered requests: queued plus in-decode.

        What the cluster's least-loaded spillover and per-worker admission
        bound measure — a worker mid-decode with an empty queue is not
        idle, and its in-flight work must count against its load.
        """
        with self._pending_lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """Whether the background loop is active."""
        return self._worker is not None

    def start(self) -> "RecommendationService":
        """Launch the background loop thread; returns self for chaining.

        The thread serves cohorts under the service's ``mode`` admission
        policy.  Serialized with :meth:`stop` on the lifecycle lock.
        """
        with self._lifecycle:
            if self._worker is not None:
                raise RuntimeError("service is already running")
            self._stop.clear()
            _release_freed_heap()
            self._worker = threading.Thread(target=self._loop, name="serving-flush", daemon=True)
            self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the background loop, by default draining in-flight work.

        With ``drain=True`` every request submitted before ``stop`` is
        decoded and delivered before the thread exits; with ``drain=False``
        queued requests stay queued (a later ``flush()`` or ``result()``
        still serves them synchronously).  Idempotent, including under
        concurrent callers: the lifecycle lock serializes ``start``/``stop``
        so one caller joins the worker and every other sees it already
        stopped.
        """
        with self._lifecycle:
            if self._worker is None:
                return
            self._drain_on_stop = drain
            self._stop.set()
            self.queue.kick()
            self._worker.join()
            self._worker = None

    # __enter__/__exit__ and recommend_many come from RecommendationClient:
    # the context manager starts/stops the background loop, and
    # recommend_many is submit-all + flush-or-await.

    def _loop(self) -> None:
        """The background thread: wait as ``mode`` prescribes, serve, repeat."""
        stopped = self._stop.is_set
        max_size = self.batcher.config.max_batch_size
        if self.mode == "continuous":
            # No deadline to wait out: the queue's head is the next cohort,
            # of one effective beam width since one cohort is one decode.
            # A racing flush() may have emptied the queue; then it is none.
            def beams(request: RecommendRequest) -> int:
                return self.engine.effective_beams(request.beam_size)

            while self.queue.await_request(stopped):
                with self._decode_lock:
                    self._serve(self.queue.pop_front(max_size, beams), self.engine.effective_len)
        else:
            deadline = self.deadline_ms / 1000.0
            while True:
                requests, reason = self.queue.await_batch(deadline, max_size, stopped)
                if reason == "stop":
                    break
                if reason == "size":
                    self.stats.size_flushes += 1
                else:
                    self.stats.deadline_flushes += 1
                self._drain(requests)
        # With drain, everything still waiting in the queue is served too.
        self._drain(None if self._drain_on_stop else [])

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        history: Sequence[int],
        top_k: int = 10,
        template_id: int = 0,
        *,
        session_key: str | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRecommendation:
        """Queue a next-item recommendation for an interaction history.

        ``session_key`` marks a returning session: the engine's prefix
        cache stores the keyed prompt's K/V whole, so the session's next
        prompt (its grown history) hits it at once, while a keyless
        prompt's K/V is stored only where an earlier prompt shares it (the
        cluster also routes on the key).  It never changes rankings.
        ``deadline_ms`` is the shed budget: if the
        request is still queued that many milliseconds from now, it is
        dropped with a typed :class:`repro.serving.Overloaded` instead of
        decoded late.

        With a ``hybrid`` configured, submits go through the
        hybrid lane: retrieval candidates narrow the decode (or answer it
        outright on cold start), and the delivered ranking matches
        :meth:`HybridRecommender.recommend` exactly.
        """
        check_top_k(top_k)
        check_template_id(template_id, self.engine.num_templates)
        check_deadline_ms(deadline_ms)
        history = list(history)
        check_history(history, self.engine.num_items)
        narrow_items: tuple[int, ...] | None = None
        if self.hybrid is not None:
            # No profile (cold start) or no decodable candidates: the
            # constrained decoder has nothing to narrow to — answer from
            # retrieval without costing a decode slot, as hybrid.recommend does.
            retriever = self.hybrid.retriever
            candidates = None
            if retriever.profile(history) is not None:
                candidates = self.hybrid.candidates(history, top_k)
            if not candidates:
                reason = "cold_start" if candidates is None else "no_candidates"
                return turn_away(
                    self.stats, reason, retriever, history, top_k, served="hybrid_retrieval"
                )
            narrow_items = tuple(int(item) for item in candidates)
        elif not history and self.fallback is not None:
            # Cold start: an empty history gives the constrained decoder
            # nothing to condition on — answer from the fallback instead.
            return turn_away(
                self.stats, "cold_start", self.fallback, history, top_k,
                served="degraded_cold_start",
            )
        request = RecommendRequest(
            prompt_ids=self.engine.encode_history(history, template_id),
            top_k=top_k,
            # The effective beam width is fixed per request at submit time
            # (never widened by co-batched requests) so results match the
            # per-request path regardless of batch composition.
            beam_size=self.engine.request_beam_size(top_k),
            session_key=session_key,
            deadline=None if deadline_ms is None else time.monotonic() + deadline_ms / 1000.0,
            history=history,
            narrow_items=narrow_items,
        )
        if narrow_items is not None:
            self.stats.hybrid_narrowed += 1
        handle = PendingRecommendation(self, request.request_id)
        # Register before push: with the background loop running, the
        # request may be decoded the instant it becomes visible.
        with self._pending_lock:
            self._pending[request.request_id] = handle
        if not self.queue.try_push(request):
            # Admission control: the bounded queue refused the request and
            # nothing was enqueued; the handle comes back already resolved —
            # submit itself stays exception-free under overload.
            self._shed(
                request, "queue_full", f"request queue full (depth bound {self.queue.max_depth})"
            )
        return handle

    # ------------------------------------------------------------------
    # Catalog lifecycle
    # ------------------------------------------------------------------
    def ingest_item(
        self,
        *,
        text: str | None = None,
        embedding=None,
    ):
        """Add one item to the live catalog the engine serves from.

        Requires an engine with a :class:`repro.core.LiveCatalog`
        attached (:meth:`TrieDecoderEngine.attach_catalog`).  Returns the
        catalog's :class:`repro.core.IngestedItem`; the very next prefill
        decodes over the new item while in-flight decodes finish against
        their pinned version.  Retrieval lanes that must follow ingests
        are the catalog itself (``fallback=catalog``,
        ``HybridRecommender(engine, catalog)``): it proxies the current
        version's tier, so ``ingest_item`` leaves every configured lane
        as it is.  Thread-safe against concurrent submits and the
        background loop — ingestion never touches decode state.
        """
        catalog = getattr(self.engine, "catalog", None)
        if catalog is None:
            raise RuntimeError(
                "engine has no live catalog; build one with model.live_catalog() "
                "and engine.attach_catalog(catalog) before ingesting"
            )
        return catalog.ingest(text=text, embedding=embedding)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Decode everything queued; returns the number of requests served.

        Requests whose shed deadline has already passed are dropped (their
        handles fail with :class:`repro.serving.Overloaded`) and do not
        count as served.  A failing batch neither hangs its own waiters
        nor strands the batches planned behind it: its handles fail, the
        rest are served, and the first error is re-raised at the end.
        """
        served, error = self._drain()
        if error is not None:
            raise error
        return served

    def _drain(
        self, requests: list[RecommendRequest] | None = None
    ) -> tuple[int, Exception | None]:
        """Serve ``requests`` as closed batches: ``(served, first engine error)``.

        ``None`` takes the whole queue once the decode lock is held, so a
        flusher that finds the queue empty has waited out whoever emptied
        it (lock order decode → queue, as in the continuous loop).  The
        closed-batch admission policy of ``flush()`` and the deadline
        thread: the micro-batcher plans the batches and each is one cohort.
        Never raises: engine errors fail their handles.
        """
        effective_len = self._effective_len()
        served, first_error = 0, None
        with self._decode_lock:
            if requests is None:
                requests = self.queue.drain()
            for batch in self.batcher.plan(requests, effective_len):
                count, error = self._serve(batch, effective_len)
                served += count
                first_error = first_error or error
        return served, first_error

    def _serve(
        self,
        requests: list[RecommendRequest],
        effective_len: "Callable[[RecommendRequest], int]",
    ) -> tuple[int, Exception | None]:
        """One cohort: shed the expired, decode, finalize, deliver.

        The one serving step of every mode.  The caller holds the decode
        lock and has picked ``requests`` by its admission policy.  Returns
        the number of rankings delivered and the first engine error; errors
        fail exactly the handles they belong to, never the caller.
        """
        stats = self.stats
        requests = self._shed_expired(requests)
        if not requests:
            return 0, None
        # Probe effective lengths before the decode: its prefill files the
        # prompts into the prefix cache, after which they would all probe
        # as full hits.  (Closed batches pass the memo the batcher bucketed
        # on, so both see the same numbers.)
        padding = padding_fraction(requests, effective_len)
        start = time.perf_counter()
        try:
            all_hypotheses = self.engine.decode(requests)
        except Exception as exc:
            all_hypotheses = exc
        decoded = time.perf_counter()
        stats.decode_seconds += decoded - start
        if isinstance(all_hypotheses, Exception):
            # A failed decode fails exactly its own cohort.
            outcomes = [(request, all_hypotheses) for request in requests]
        else:
            stats.admissions += 1
            stats.batches += 1
            stats.padding_fraction_sum += padding
            stats.requests += len(requests)
            outcomes = self._finalize(requests, all_hypotheses)
            stats.finalize_seconds += time.perf_counter() - decoded
        for request, outcome in outcomes:
            self._resolve(request, outcome)
        errors = [outcome for _, outcome in outcomes if isinstance(outcome, Exception)]
        return len(outcomes) - len(errors), errors[0] if errors else None

    def _finalize(
        self, requests: list[RecommendRequest], all_hypotheses
    ) -> list[tuple[RecommendRequest, list[int] | Exception]]:
        """Rankings (or the error) of one decoded cohort.

        One ``engine.finalize`` call for all of them keeps widen-and-backfill
        engines' re-decode batched; when it raises, each request is retried
        alone so a failing finalize fails only its own handle.  Finalize
        may re-decode, hence under the decode lock.
        """
        try:
            return list(zip(requests, self._finalize_rankings(requests, all_hypotheses)))
        except Exception:
            outcomes = []
            for request, hypotheses in zip(requests, all_hypotheses):
                try:
                    outcomes.append((request, self._finalize_rankings([request], [hypotheses])[0]))
                except Exception as exc:
                    outcomes.append((request, exc))
            return outcomes

    def _finalize_rankings(self, batch, all_hypotheses) -> list[list[int]]:
        """Engine finalize plus the hybrid lane's backfill rule.

        A narrowed decode surfaces at most its candidate set; backfilling
        from the candidate order and then the popularity order
        (:meth:`HybridRecommender.backfill`) is what makes a served
        narrowed request return the exact list ``hybrid.recommend``
        would.
        """
        rankings = self.engine.finalize(batch, all_hypotheses)
        if self.hybrid is None:
            return rankings
        return [
            self.hybrid.backfill(ranking, list(request.narrow_items), request.top_k)
            if request.narrow_items is not None
            else ranking
            for request, ranking in zip(batch, rankings)
        ]

    def _effective_len(self) -> "Callable[[RecommendRequest], int]":
        """The engine's decode-cost model, memoized per request.

        Memoization matters for prefix-cache engines: a request's real
        prompt-forward cost must be probed *before* the decode files its
        prompt into the cache (after which it would probe as a full hit),
        and the padding stats must see the same numbers the batcher
        bucketed on.
        """
        engine = self.engine
        memo: dict[int, int] = {}

        def effective(request: RecommendRequest) -> int:
            length = memo.get(request.request_id)
            if length is None:
                length = engine.effective_len(request)
                memo[request.request_id] = length
            return length

        return effective

    def _shed_expired(self, requests: list[RecommendRequest]) -> list[RecommendRequest]:
        """Shed the deadline-expired requests; keep the rest.

        This is the shed side of the deadline-vs-completion race, and it
        runs exactly once per request, at admission — the last instant
        before decode cost is paid: a request that made it into a decode
        completes normally even if its deadline passes mid-decode.
        """
        live: list[RecommendRequest] = []
        for request in requests:
            if request.expired:
                self._shed(
                    request,
                    "deadline",
                    f"request {request.request_id} missed its deadline while queued",
                )
            else:
                live.append(request)
        return live

    def _shed(self, request: RecommendRequest, reason: str, message: str) -> None:
        """Admission control turned ``request`` away: degrade it, or fail it typed.

        With a retrieval fallback, the request is answered from the fast
        lane, flagged ``degraded``, rather than failing the caller outright.
        """
        handle = self._claim(request)
        if handle is not None:
            turn_away(
                self.stats, reason, self.fallback, request.history, request.top_k,
                served=f"degraded_{reason}", shed=f"shed_{reason}", message=message,
                handle=handle,
            )

    def _resolve(self, request: RecommendRequest, outcome: "list[int] | Exception") -> None:
        """Settle ``request``'s pending handle with its decode's ranking or error."""
        handle = self._claim(request)
        if handle is None:
            return
        if isinstance(outcome, Exception):
            handle._fail(outcome)
        else:
            handle._deliver(outcome)

    def _claim(self, request: RecommendRequest) -> PendingRecommendation | None:
        """Unregister ``request``'s handle: the one site that hands a handle to its settler."""
        with self._pending_lock:
            return self._pending.pop(request.request_id, None)
