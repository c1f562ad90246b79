"""The serving facade: queue in front, a generative engine behind.

:class:`RecommendationService` is the deployment-shaped entry point to any
generative recommender wrapped in a :class:`repro.serving.GenerativeEngine`
(LC-Rec, TIGER, P5-CID, or your own adapter): callers ``submit``
recommendation requests (histories, free-form instructions, or intention
queries — whichever the engine can encode) and read results from the
returned :class:`PendingRecommendation`.  Three flush disciplines drain
the queue through the micro-batcher into the engine's batched
trie-constrained decode:

* **Synchronous** — the caller invokes :meth:`RecommendationService.flush`
  (or lets ``result()`` trigger it).  Zero threads, deterministic batching;
  what tests and offline evaluation use.
* **Asynchronous, deadline-batched** (``mode="deadline"``, the default) —
  :meth:`RecommendationService.start` launches a background flush thread
  that decodes as soon as a full micro-batch is waiting *or* the oldest
  request exceeds the ``deadline_ms`` latency budget, whichever comes
  first.  Callers block in ``PendingRecommendation.result(timeout=...)``;
  :meth:`stop` drains in-flight work and joins the thread.
* **Asynchronous, continuous** (``mode="continuous"``, engines with
  ``supports_continuous`` only) — the background thread instead drives a
  :class:`ContinuousScheduler`: requests are admitted into the in-flight
  decode at trie-level boundaries (no closed batches, no deadline wait)
  and delivered the moment their own rows finish.  Under load this trades
  the deadline-flush queueing delay for at most one trie level of
  admission latency; ``benchmarks/bench_continuous_batching.py`` measures
  the p50/p95 gap under Poisson arrivals.

Results are identical to the engine's single-request oracle in every mode
— batching, deadlines, and continuous admission change the cost, never the
math.  Engines with ``supports_prefix_cache`` additionally skip re-running
prompt prefixes they have decoded before; see ``docs/serving.md`` for
tuning and invalidation.

Thread safety: ``submit*`` may be called from any number of threads in
any mode, and ``flush`` may race the background loop (decoding is
serialized on an internal lock; each request is delivered exactly once).
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
    DegradedRecommendation,
    FallbackRecommender,
    Overloaded,
    RecommendationClient,
)
from .batcher import MicroBatcher, MicroBatcherConfig, padding_fraction
from .continuous import ContinuousScheduler
from .engine import GenerativeEngine
from .queue import RecommendRequest, RequestQueue

__all__ = [
    "PendingRecommendation",
    "ServingStats",
    "RecommendationService",
    "refresh_retrieval_tier",
]

_UNSET = object()  # distinguishes "not passed" from an explicit prefix_cache


def refresh_retrieval_tier(client, version) -> bool:
    """Point a client's static retrieval lanes at a new catalog version.

    The ingestion-triggered retrieval-profile refresh: a service or
    cluster configured with a *static* :class:`repro.retrieval.RetrievalRecommender`
    as its ``fallback`` (or behind its ``hybrid``) would keep serving the
    pre-ingest tier forever — a session that already interacted with a
    newly ingested item could never see it among its retrieval candidates,
    because the frozen tier has neither the item's vector (profiles skip
    unknown ids) nor its index entry.  ``ingest_item`` calls this after
    the catalog publishes, swapping those static tiers for the published
    version's retrieval tier so retrieval profiles refresh in lockstep
    with the decode trie.

    Only plain ``RetrievalRecommender`` instances are touched: a
    :class:`repro.core.LiveCatalog` used as the fallback proxies the
    current version by itself, and custom fallback objects are the
    caller's to manage.  Swaps are single attribute assignments (atomic
    in CPython), so concurrent submits read either the old or the new
    tier, both internally consistent.  Returns whether anything changed.
    """
    tier = getattr(version, "retrieval", None)
    if tier is None:
        return False
    from ..retrieval import RetrievalRecommender

    refreshed = False
    fallback = getattr(client, "fallback", None)
    if isinstance(fallback, RetrievalRecommender) and fallback is not tier:
        client.fallback = tier
        refreshed = True
    hybrid = getattr(client, "hybrid", None)
    if hybrid is not None:
        retriever = getattr(hybrid, "retriever", None)
        if isinstance(retriever, RetrievalRecommender) and retriever is not tier:
            hybrid.retriever = tier
            refreshed = True
    return refreshed


class PendingRecommendation:
    """Future-style handle for one submitted request.

    Thread safety: the handle is written once by whichever thread decodes
    its batch (delivery is signalled through a :class:`threading.Event`)
    and may be read from any thread; ``result`` and ``done`` never race the
    writer.
    """

    def __init__(self, service: "RecommendationService", request_id: int):
        self._service = service
        self._request_id = request_id
        self._event = threading.Event()
        self._result: list[int] | None = None
        self._error: BaseException | None = None
        self._degraded_reason: str | None = None

    @property
    def request_id(self) -> int:
        return self._request_id

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def degraded(self) -> bool:
        """True when the retrieval fallback lane served this request.

        Meaningful once ``done``; a degraded handle also records why in
        ``degraded_reason`` (``"queue_full"`` or ``"deadline"``).
        """
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        return self._degraded_reason

    def result(self, timeout: float | None = None) -> list[int]:
        """The ranked item ids, blocking until the request is served.

        With the background flush loop running, blocks (up to ``timeout``
        seconds, raising ``TimeoutError`` on expiry) until the deadline or
        batch-size trigger decodes this request.  Without it, triggers a
        synchronous ``flush()`` — the pre-async behaviour.  Raises the
        decode's exception if this request's batch failed.
        """
        if not self._event.is_set() and not self._service.is_running:
            self._service.flush()
        if not self._event.wait(timeout):
            raise TimeoutError(f"request {self._request_id} not served within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result

    def _deliver(self, result: list[int]) -> None:
        self._result = result
        self._event.set()

    def _deliver_degraded(self, result: list[int], reason: str) -> None:
        self._degraded_reason = reason
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class ServingStats:
    """O(1)-memory counters the throughput benchmark and tests read.

    ``size_flushes``/``deadline_flushes`` count what triggered each
    background flush: a full batch waiting vs the oldest request aging past
    the latency budget.  Synchronous ``flush()`` calls count in neither.
    In continuous mode, ``batches`` counts admission prefills instead of
    closed batches, and ``admissions``/``joins`` record how many admission
    groups were prefilled / how many of those joined an already-live
    decode rather than starting a fresh one.

    ``padding_fraction_sum`` accumulates per-batch padding fractions over
    the engine's *effective* lengths (post-prefix-cache, for engines with
    a cache) — the columns the decode actually forwards — so the mean
    reflects real decode cost, not raw prompt shapes.

    ``shed_queue_full`` / ``shed_deadline`` count admission-control
    rejections (typed :class:`repro.serving.Overloaded` deliveries): a
    bounded queue refusing a submit, and a queued request dropped because
    its shed deadline passed before its decode started.  Shed requests
    count in neither ``requests`` nor ``batches``.

    ``degraded_queue_full`` / ``degraded_deadline`` count would-be-shed
    requests the retrieval fallback *served* instead (the service was
    constructed with a ``fallback``): those handles resolve with a
    ranking and ``degraded=True``, and they are deliberately **not**
    counted as shed — served and shed are disjoint outcomes.

    ``hybrid_narrowed`` / ``hybrid_retrieval`` count the hybrid lane
    (services constructed with ``hybrid=``): history submits decoded over
    a retrieval-narrowed candidate subtrie, and history submits the
    retrieval tier answered outright (cold start, or no decodable
    candidates) without costing a decode slot.

    ``prefill_seconds`` / ``step_seconds`` / ``finalize_seconds`` attribute
    decode-path wall time to its stages: the prompt phase (including
    prefix-cache matching and level-0 expansion), the per-level stepping
    loop (including retirements), and ranking post-processing (which may
    re-decode for widen-and-backfill engines).  The benchmark JSON reports
    read these through :meth:`stage_seconds`, so a perf regression can be
    attributed to a stage instead of showing up only in end-to-end
    latency.  Queue wait and thread handoff are deliberately excluded —
    these are engine-cost counters.
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
    hybrid_narrowed: int = 0
    hybrid_retrieval: int = 0
    prefill_seconds: float = 0.0
    step_seconds: float = 0.0
    finalize_seconds: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def mean_padding_fraction(self) -> float:
        return self.padding_fraction_sum / self.batches if self.batches else 0.0

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage decode time: ``{"prefill": .., "step": .., "finalize": ..}``."""
        return {
            "prefill": self.prefill_seconds,
            "step": self.step_seconds,
            "finalize": self.finalize_seconds,
        }


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
    serve through the exact same queue/batcher/scheduler machinery.

    Parameters
    ----------
    engine:
        A :class:`GenerativeEngine` adapter (``LCRecEngine(model)``,
        ``TIGEREngine(model)``, ``P5CIDEngine(model)``, ...).  Passing a
        bare model raises ``TypeError`` — wrap it first (the pre-PR-4
        ``RecommendationService(model)`` shim is gone).
    batcher:
        Micro-batching policy; see :class:`MicroBatcherConfig`.
    deadline_ms:
        Async latency budget: the background loop flushes once the oldest
        queued request has waited this long (a full batch flushes sooner).
        Ignored by the continuous loop, which admits immediately.
    queue_depth:
        Admission-control bound on how many requests may wait in the
        queue at once (``None`` = unbounded, the default).  A submit that
        finds the queue full is refused with a handle already failed with
        a typed :class:`repro.serving.Overloaded` (reason
        ``"queue_full"``) instead of queueing unboundedly — what keeps
        worst-case latency bounded under overload.
    hybrid:
        Optional :class:`repro.retrieval.HybridRecommender` — the
        retrieval-narrowed decode lane, now reachable through plain
        ``submit`` calls.  When set, each history submit first asks the
        hybrid's retrieval tier for candidates: cold-start histories (no
        profile) and histories with no decodable candidates are answered
        from retrieval immediately (a pre-served ``degraded`` handle,
        reason ``"cold_start"`` / ``"no_candidates"``); everything else
        is stamped with the candidate tuple (``narrow_items``) and
        decoded over the candidate subtrie, then backfilled exactly as
        :meth:`HybridRecommender.recommend` would — a submitted request
        and a library call return identical rankings.  Requires an
        engine with ``supports_narrowing``; the hybrid's own engine is
        not used for decoding (only its retriever and backfill rule), so
        one hybrid object can be shared across cluster workers.
        Intention/instruction submits bypass the lane (no history to
        retrieve for).
    mode:
        Background-loop discipline: ``"deadline"`` (default) decodes in
        closed deadline-batched flushes; ``"continuous"`` admits queued
        requests into the in-flight decode at trie-level boundaries and
        retires finished requests early, with ``max_batch_size`` acting as
        the cap on the joined batch width.  Continuous mode requires an
        engine with ``supports_continuous``.  Synchronous ``flush()`` and
        rankings are identical in both modes.
    prefix_cache:
        Optional override forwarded to ``engine.set_prefix_cache`` —
        ``True`` builds a fresh :class:`repro.llm.PrefixKVCache`, a cache
        instance shares/sizes one, ``False``/``None`` disables.  Left
        unset, the engine keeps whatever cache it was constructed with.
        Rankings are identical either way.
    fallback:
        Optional :class:`repro.serving.FallbackRecommender` — the
        retrieval fast lane.  When set, a ``submit`` (history) request
        that admission control would shed (full queue at submit, or shed
        deadline passed while queued) is *served* from the fallback
        instead of rejected: its handle resolves with the fallback
        ranking and ``degraded=True``.  Intention/instruction submits
        carry no item history the fallback could use and keep the plain
        ``Overloaded`` rejection.  ``None`` (default) keeps pre-fallback
        shedding exactly as it was.

    Thread safety: see the module docstring.  The decode path itself is
    serialized on one internal lock, so a concurrent ``flush()`` and
    background loop never interleave inside the engine.
    """

    def __init__(
        self,
        engine: GenerativeEngine,
        batcher: MicroBatcherConfig | None = None,
        deadline_ms: float = 25.0,
        mode: str = "deadline",
        prefix_cache: PrefixKVCache | bool | None = _UNSET,
        queue_depth: int | None = None,
        fallback: FallbackRecommender | None = None,
        hybrid=None,
    ):
        if not isinstance(engine, GenerativeEngine):
            # The pre-PR-4 constructor took a built LCRec model; the shim
            # that silently wrapped it was removed in PR 6.
            raise TypeError(
                "RecommendationService requires a GenerativeEngine adapter, got "
                f"{type(engine).__name__}; wrap the model first, e.g. "
                "RecommendationService(LCRecEngine(model)) or model.service(...)"
            )
        if prefix_cache is not _UNSET:
            engine.set_prefix_cache(prefix_cache)
        if deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if mode not in ("deadline", "continuous"):
            raise ValueError(f"mode must be 'deadline' or 'continuous', got {mode!r}")
        if mode == "continuous" and not engine.supports_continuous:
            raise ValueError(
                f"engine {engine.name!r} does not support continuous batching; "
                "use mode='deadline'"
            )
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
        """Whether the background flush loop is active."""
        return self._worker is not None

    def start(self) -> "RecommendationService":
        """Launch the background loop thread; returns self for chaining.

        The thread runs the deadline-batched flush loop or the continuous
        scheduler, per the service's ``mode``.  Serialized with
        :meth:`stop` on the lifecycle lock.
        """
        with self._lifecycle:
            if self._worker is not None:
                raise RuntimeError("service is already running")
            self._stop.clear()
            _release_freed_heap()
            target = self._continuous_loop if self.mode == "continuous" else self._flush_loop
            self._worker = threading.Thread(target=target, name="serving-flush", daemon=True)
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

    def _flush_loop(self) -> None:
        """Deadline-batched flushing: the background thread's main loop."""
        deadline = self.deadline_ms / 1000.0
        max_size = self.batcher.config.max_batch_size
        while True:
            requests, reason = self.queue.await_batch(deadline, max_size, self._stop.is_set)
            if reason == "stop":
                break
            if reason == "size":
                self.stats.size_flushes += 1
            else:
                self.stats.deadline_flushes += 1
            self._decode_requests(requests, raise_errors=False)
        if self._drain_on_stop:
            self._decode_requests(self.queue.drain(), raise_errors=False)

    def _continuous_loop(self) -> None:
        """Continuous batching: the background thread's main loop.

        Each iteration is one trie-level boundary: admit whatever queued
        requests fit the in-flight decode (width cap, engine join
        constraints), advance every row one level, and deliver the rows
        that finished.  When idle it parks on the queue — no deadline
        wait: the first request is admitted immediately and later ones
        join it mid-decode.
        """
        scheduler = ContinuousScheduler(
            self.engine, max_width=self.batcher.config.max_batch_size
        )
        while not self._stop.is_set():
            if scheduler.idle and not self.queue.await_request(self._stop.is_set):
                break
            self._drive_scheduler(scheduler)
        # In-flight rows are no longer queued, so they must be finished and
        # delivered regardless of the drain flag; with drain, everything
        # still waiting in the queue is admitted and finished too.
        while not scheduler.idle or (self._drain_on_stop and self.queue):
            self._drive_scheduler(scheduler, admit=self._drain_on_stop)

    def _drive_scheduler(self, scheduler: ContinuousScheduler, admit: bool = True) -> None:
        """One level boundary: admit compatible queued work, step, deliver."""
        ready: list[tuple[PendingRecommendation, list[int]]] = []
        with self._decode_lock:
            if admit:
                requests = self.queue.pop_front(
                    scheduler.free_width, scheduler.admission_predicate()
                )
                # Shed-at-admission: a deadline that expired while queued
                # fails here, the last instant before decode cost is paid.
                requests = self._shed_expired(requests)
                if requests:
                    joining = not scheduler.idle
                    # Probe effective lengths before admit(): prefill files
                    # the prompts into the prefix cache, after which they
                    # would all probe as full hits.
                    padding = padding_fraction(requests, self._effective_len())
                    tick = time.perf_counter()
                    try:
                        scheduler.admit(requests)
                    except Exception as exc:
                        # Prefill and join validation run before the live
                        # decode's state is touched: fail only the incoming
                        # requests, keep serving the in-flight ones.
                        self._fail_requests(requests, exc)
                        requests = []
                    finally:
                        # Admission is an engine prefill (plus the join).
                        self.stats.prefill_seconds += time.perf_counter() - tick
                    if requests:
                        self.stats.admissions += 1
                        self.stats.joins += int(joining)
                        self.stats.batches += 1
                        self.stats.padding_fraction_sum += padding
            tick = time.perf_counter()
            try:
                delivered = scheduler.step()
            except Exception as exc:
                # A broken step takes down every in-flight row (their
                # decode state is unrecoverable); fail those handles and
                # keep the loop alive for the requests still queued.
                self.stats.step_seconds += time.perf_counter() - tick
                self._fail_requests(scheduler.abort(), exc)
                return
            self.stats.step_seconds += time.perf_counter() - tick
            self.stats.requests += len(delivered)
            for request, hypotheses in delivered:
                with self._pending_lock:
                    handle = self._pending.pop(request.request_id, None)
                if handle is not None:
                    # finalize may re-decode (widen-and-backfill engines),
                    # so it runs under the decode lock with delivery after.
                    # A failing finalize must fail only its own handle, not
                    # take down the loop (and with it every later request).
                    tick = time.perf_counter()
                    try:
                        ready.append((handle, self._finalize_rankings([request], [hypotheses])[0]))
                    except Exception as exc:
                        handle._fail(exc)
                    finally:
                        self.stats.finalize_seconds += time.perf_counter() - tick
        for handle, ranking in ready:
            handle._deliver(ranking)

    def _fail_requests(self, requests: list[RecommendRequest], error: Exception) -> None:
        for request in requests:
            with self._pending_lock:
                handle = self._pending.pop(request.request_id, None)
            if handle is not None:
                handle._fail(error)

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

        ``session_key`` is accepted for client-API uniformity (the cluster
        routes on it; a single service has nowhere to route) and recorded
        on the request.  ``deadline_ms`` is the shed budget: if the
        request is still queued that many milliseconds from now, it is
        dropped with a typed :class:`repro.serving.Overloaded` instead of
        decoded late.

        With a ``hybrid`` configured, history submits go through the
        hybrid lane: retrieval candidates narrow the decode (or answer it
        outright on cold start), and the delivered ranking matches
        :meth:`HybridRecommender.recommend` exactly.
        """
        history = list(history)
        narrow_items: tuple[int, ...] | None = None
        if self.hybrid is not None:
            if self.hybrid.retriever.profile(history) is None:
                # Cold start: the constrained decoder has no history
                # signal either — answer from retrieval without costing
                # a decode slot (exactly hybrid.recommend's lane).
                return self._serve_retrieval(history, top_k, "cold_start")
            candidates = self.hybrid.candidates(history, top_k)
            if not candidates:
                return self._serve_retrieval(history, top_k, "no_candidates")
            narrow_items = tuple(int(item) for item in candidates)
            self.stats.hybrid_narrowed += 1
        return self._submit_prompt(
            self.engine.encode_history(history, template_id),
            top_k,
            session_key=session_key,
            deadline_ms=deadline_ms,
            history=history,
            narrow_items=narrow_items,
        )

    def _serve_retrieval(
        self, history: list[int], top_k: int, reason: str
    ) -> DegradedRecommendation:
        """A pre-served handle from the hybrid's retrieval tier."""
        self.stats.hybrid_retrieval += 1
        return DegradedRecommendation(
            self.hybrid.retriever.recommend(history, top_k), reason
        )

    def submit_intention(
        self,
        intention_text: str,
        top_k: int = 10,
        *,
        session_key: str | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRecommendation:
        """Queue an intention-query retrieval (engines that encode intentions)."""
        return self._submit_prompt(
            self.engine.encode_intention(intention_text),
            top_k,
            session_key=session_key,
            deadline_ms=deadline_ms,
        )

    def submit_instruction(
        self,
        instruction: str,
        top_k: int = 10,
        *,
        session_key: str | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRecommendation:
        """Queue an already-rendered instruction (engines that encode text)."""
        return self._submit_prompt(
            self.engine.encode_instruction(instruction),
            top_k,
            session_key=session_key,
            deadline_ms=deadline_ms,
        )

    def _submit_prompt(
        self,
        prompt_ids: list[int],
        top_k: int,
        session_key: str | None = None,
        deadline_ms: float | None = None,
        history: list[int] | None = None,
        narrow_items: tuple[int, ...] | None = None,
    ) -> PendingRecommendation:
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None for no deadline)")
        request = RecommendRequest(
            prompt_ids=prompt_ids,
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
        handle = PendingRecommendation(self, request.request_id)
        # Register before push: with the background loop running, the
        # request may be decoded the instant it becomes visible.
        with self._pending_lock:
            self._pending[request.request_id] = handle
        if not self.queue.try_push(request):
            # Admission control: the bounded queue refused the request.
            # Nothing was enqueued either way; with a retrieval fallback
            # and a history to retrieve for, the request is served
            # degraded, otherwise the handle comes back already failed —
            # submit itself stays exception-free under overload.
            with self._pending_lock:
                self._pending.pop(request.request_id, None)
            if self.fallback is not None and history is not None:
                self.stats.degraded_queue_full += 1
                handle._deliver_degraded(
                    self.fallback.recommend(history, request.top_k), "queue_full"
                )
            else:
                self.stats.shed_queue_full += 1
                handle._fail(
                    Overloaded(
                        f"request queue full (depth bound {self.queue.max_depth})",
                        reason="queue_full",
                    )
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
        popularity_count: int = 0,
    ):
        """Add one item to the live catalog the engine serves from.

        Requires an engine with a :class:`repro.core.LiveCatalog`
        attached (:meth:`TrieDecoderEngine.attach_catalog`).  Returns the
        catalog's :class:`repro.core.IngestedItem`; the very next prefill
        decodes over the new item while in-flight decodes finish against
        their pinned version.  A static ``fallback``/``hybrid`` retrieval
        tier is refreshed to the published version
        (:func:`refresh_retrieval_tier`), so sessions that already
        interacted with the new item see it in their retrieval
        candidates.  Thread-safe against concurrent submits and the
        background loop — ingestion never touches decode state.
        """
        catalog = getattr(self.engine, "catalog", None)
        if catalog is None:
            raise RuntimeError(
                "engine has no live catalog; build one with model.live_catalog() "
                "and engine.attach_catalog(catalog) before ingesting"
            )
        ingested = catalog.ingest(
            text=text, embedding=embedding, popularity_count=popularity_count
        )
        refresh_retrieval_tier(self, ingested.version)
        return ingested

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Decode everything queued; returns the number of requests served.

        Requests whose shed deadline has already passed are dropped (their
        handles fail with :class:`repro.serving.Overloaded`) and do not
        count as served.
        """
        return self._decode_requests(self.queue.drain())

    def _shed_expired(self, requests: list[RecommendRequest]) -> list[RecommendRequest]:
        """Drop deadline-expired requests, failing their handles; keep the rest.

        This is the shed side of the deadline-vs-completion race, and it
        runs exactly once per request, at the moment its decode would
        start: a request that made it into a decode batch completes
        normally even if its deadline passes mid-decode.
        """
        live: list[RecommendRequest] = []
        for request in requests:
            if not request.expired:
                live.append(request)
            elif self.fallback is not None and request.history is not None:
                # Degrade instead of shed: answer from the retrieval fast
                # lane, flagged, rather than failing the caller outright.
                with self._pending_lock:
                    handle = self._pending.pop(request.request_id, None)
                if handle is not None:
                    self.stats.degraded_deadline += 1
                    handle._deliver_degraded(
                        self.fallback.recommend(request.history, request.top_k),
                        "deadline",
                    )
            else:
                self.stats.shed_deadline += 1
                self._fail_requests(
                    [request],
                    Overloaded(
                        f"request {request.request_id} missed its deadline while queued",
                        reason="deadline",
                    ),
                )
        return live

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

    def _narrow_groups(
        self, requests: list[RecommendRequest]
    ) -> list[list[RecommendRequest]]:
        """Partition a drained queue by narrow candidate set, FIFO-stable.

        One engine prefill takes one narrow set (mixed sets fail
        prefill's validation), so the closed-batch path plans each group
        separately — the continuous path gets the same grouping from the
        admission predicate instead.
        """
        groups: dict[tuple[int, ...] | None, list[RecommendRequest]] = {}
        for request in requests:
            groups.setdefault(request.narrow_items, []).append(request)
        return list(groups.values())

    def _decode_requests(
        self,
        requests: list[RecommendRequest],
        raise_errors: bool = True,
        shed: bool = True,
    ) -> int:
        # A failing batch must neither hang its own waiters nor strand the
        # other planned batches (their requests are already drained from the
        # queue): fail the broken batch's handles, keep decoding the rest,
        # and re-raise the first error at the end.
        #
        # Deadline shedding runs per micro-batch, at the moment that
        # batch's decode would start — not once for the whole plan — so
        # ``deadline_ms`` caps queueing delay even when a deep backlog
        # drains across many sequential batches.
        #
        # Requests are partitioned by narrow candidate set before the
        # micro-batcher plans: one prefill takes one narrow set.
        first_error: Exception | None = None
        served = 0
        effective_len = self._effective_len()
        with self._decode_lock:
            for group in self._narrow_groups(requests):
                for batch in self.batcher.plan(group, effective_len):
                    if shed:
                        batch = self._shed_expired(batch)
                        if not batch:
                            continue
                    try:
                        self._decode_batch(batch, effective_len)
                        served += len(batch)
                    except Exception as exc:
                        for request in batch:
                            with self._pending_lock:
                                handle = self._pending.pop(request.request_id, None)
                            if handle is not None:
                                handle._fail(exc)
                        if first_error is None:
                            first_error = exc
        if first_error is not None and raise_errors:
            raise first_error
        return served

    def _decode_batch(
        self,
        batch: list[RecommendRequest],
        effective_len: "Callable[[RecommendRequest], int]",
    ) -> None:
        # Drive the engine contract directly (exactly what engine.decode
        # does) so wall time can be attributed per stage in the stats.
        tick = time.perf_counter()
        state = self.engine.prefill(batch)
        self.stats.prefill_seconds += time.perf_counter() - tick
        tick = time.perf_counter()
        while not state.done:
            self.engine.step(state)
        all_hypotheses = self.engine.finish(state)
        self.stats.step_seconds += time.perf_counter() - tick
        tick = time.perf_counter()
        rankings = self._finalize_rankings(batch, all_hypotheses)
        self.stats.finalize_seconds += time.perf_counter() - tick
        for request, ranking in zip(batch, rankings):
            with self._pending_lock:
                handle = self._pending.pop(request.request_id, None)
            if handle is not None:
                handle._deliver(ranking)
        self.stats.requests += len(batch)
        self.stats.batches += 1
        # Effective lengths (memoized at plan time, so this sees the same
        # probe the batcher bucketed on): rows served from a prefix cache
        # forward only their unseen suffix, and the padding stat must
        # reflect that real decode width, not raw prompt shapes.
        self.stats.padding_fraction_sum += padding_fraction(batch, effective_len)

