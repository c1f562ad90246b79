"""Multi-worker sharded serving: N engine replicas behind an affinity router.

One :class:`repro.serving.RecommendationService` is one decode thread
driving one engine — a ceiling no amount of micro-batching lifts.  The
:class:`ServingCluster` scales *out*: it owns ``num_workers`` thread-based
workers, each wrapping its own ``RecommendationService`` over a private
engine replica (:meth:`repro.serving.GenerativeEngine.replicate` — shared
model weights, private prefix K/V cache, private gathered-head memo), and
fronts them with three policies:

* **Session-affinity routing** — requests carrying a ``session_key`` are
  placed by rendezvous hashing (:class:`repro.serving.AffinityRouter`),
  so a session's refresh traffic keeps landing on the worker that already
  holds its prompt K/V.  Keyless requests go to the least-loaded worker.
* **Admission control** — each worker's backlog (queued + in-decode) is
  bounded by ``max_backlog``.  A request whose affine worker is saturated
  *spills* to the least-loaded worker with room (trading cache warmth for
  immediate service); when every worker is saturated the request is shed
  at the front door with a typed :class:`repro.serving.Overloaded`
  instead of queueing unboundedly.
* **Graceful degradation** — per-request ``deadline_ms`` budgets flow
  through to the workers, which drop requests whose deadline expired
  while queued (again a typed ``Overloaded``), keeping served-request
  latency bounded past the saturation knee: under overload the cluster
  degrades by shedding a fraction of load, never by an unbounded p95
  cliff (``tests/test_serving_cluster.py::TestDeadlineShedding``).
  With a ``fallback``, the front door and the workers serve would-be-shed
  history requests from it, flagged ``degraded``, through the same
  turn-away path as a plain service (:func:`repro.serving.api.turn_away`).

The cluster speaks the same :class:`repro.serving.RecommendationClient`
surface as the single-process service — ``submit(...) ->
PendingRecommendation`` / ``handle.result(timeout)`` — so callers are
mode-agnostic, and a one-worker cluster returns rankings bit-identical to
a plain ``RecommendationService`` over the same engine (scheduling and
placement change cost, never math).

Thread safety: ``submit*`` may race from any number of threads (routing
reads worker backlogs without a global lock, so the backlog bound is
tight-but-approximate under heavy submit concurrency — admission may
transiently overshoot by the number of concurrently admitting threads);
``start``/``stop`` are idempotent and serialized per worker by each
service's lifecycle lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .api import FallbackRecommender, PendingRecommendation, RecommendationClient, turn_away
from .batcher import MicroBatcherConfig
from .engine import GenerativeEngine
from .queue import check_deadline_ms, check_history, check_template_id, check_top_k
from .router import AffinityRouter
from .service import RecommendationService, ServingStats

__all__ = ["ClusterStats", "ServingCluster"]


@dataclass
class ClusterStats:
    """Routing and admission counters (per-worker decode stats live on the
    workers' own :class:`repro.serving.ServingStats`).

    ``affine`` counts keyed submits that landed on their rendezvous-hash
    worker; ``spilled``, keyed submits diverted to a less-loaded worker
    because the affine one was saturated; ``keyless``, submits with no
    ``session_key`` (placed least-loaded); ``rejected``, submits shed at
    the front door because every worker was at its backlog bound.  The
    affinity hit rate — what the prefix-cache story depends on — is
    ``affine / (affine + spilled)``.

    ``degraded`` counts submits the front door served from the retrieval
    fallback instead (every worker saturated, a fallback configured):
    they count in ``submitted``, not in ``rejected`` or ``per_worker``.
    Worker-level turn-aways live on each worker's
    :class:`repro.serving.ServingStats`.
    """

    submitted: int = 0
    affine: int = 0
    spilled: int = 0
    keyless: int = 0
    rejected: int = 0
    degraded: int = 0
    per_worker: dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @property
    def affinity_hit_rate(self) -> float:
        keyed = self.affine + self.spilled
        return self.affine / keyed if keyed else 0.0

    def count(self, kind: str, worker: int | None = None) -> None:
        """One front-door decision: ``kind`` moves, and ``worker``'s share if routed."""
        with self._lock:
            self.submitted += 1
            setattr(self, kind, getattr(self, kind) + 1)
            if worker is not None:
                self.per_worker[worker] = self.per_worker.get(worker, 0) + 1


class _Worker:
    """One cluster slot: an index plus the service owning its engine replica."""

    __slots__ = ("index", "service")

    def __init__(self, index: int, service: RecommendationService):
        self.index = index
        self.service = service

    @property
    def backlog(self) -> int:
        return self.service.backlog


class ServingCluster(RecommendationClient):
    """N recommendation workers behind session-affinity admission control.

    Usage mirrors the single service — the cluster *is* a
    :class:`repro.serving.RecommendationClient`::

        cluster = ServingCluster(LCRecEngine(model), num_workers=4)
        with cluster:  # starts every worker's background loop
            handle = cluster.submit(history, session_key=f"user:{uid}",
                                    deadline_ms=150.0)
            try:
                ranking = handle.result(timeout=5.0)
            except Overloaded as shed:
                ...  # serve a fallback; shed.reason says which guard fired

    Parameters
    ----------
    engine:
        Either a built :class:`repro.serving.GenerativeEngine` — worker 0
        drives it directly and workers 1..N-1 drive
        :meth:`~repro.serving.GenerativeEngine.replicate` copies (shared
        weights, private caches) — or a zero-argument factory callable,
        invoked once per worker, for engines without replication support
        or deployments that want fully independent models.
    num_workers:
        Fleet size (decode threads once started).
    batcher / mode:
        Forwarded to every worker's ``RecommendationService`` unchanged.
    max_backlog:
        Per-worker admission bound on undelivered requests (queued plus
        in-decode).  ``None`` disables shedding at the front door (pure
        routing).
    fallback:
        Optional :class:`repro.serving.FallbackRecommender` — the
        retrieval fast lane, shared by the front door and every worker.
        History submits that would otherwise be shed (fleet-wide
        saturation at the front door, per-worker queue overflow, or
        deadline expiry) are served from it with ``degraded=True``
        handles, and workers answer empty histories from it
        (``degraded_reason="cold_start"``) without consuming a decode slot.
        Intention/instruction submits keep plain rejections.  The object
        must be thread-safe for concurrent reads —
        :class:`repro.retrieval.RetrievalRecommender` is.
    """

    def __init__(
        self,
        engine: GenerativeEngine | Callable[[], GenerativeEngine],
        num_workers: int = 4,
        batcher: MicroBatcherConfig | None = None,
        mode: str = "deadline",
        max_backlog: int | None = 64,
        fallback: FallbackRecommender | None = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        if max_backlog is not None and max_backlog < 1:
            raise ValueError("max_backlog must be positive (or None for unbounded)")
        engines = self._provision_engines(engine, num_workers)
        self._workers = [
            _Worker(
                index,
                RecommendationService(worker_engine, batcher=batcher, mode=mode, fallback=fallback),
            )
            for index, worker_engine in enumerate(engines)
        ]
        self.router = AffinityRouter(num_workers)
        self.max_backlog = max_backlog
        self.fallback = fallback
        self.stats = ClusterStats()

    @staticmethod
    def _provision_engines(
        engine: GenerativeEngine | Callable[[], GenerativeEngine], num_workers: int
    ) -> list[GenerativeEngine]:
        if isinstance(engine, GenerativeEngine):
            # An engine without replicate() raises here, before any worker starts.
            return [engine] + [engine.replicate() for _ in range(num_workers - 1)]
        engines = [engine() for _ in range(num_workers)]
        for built in engines:
            if not isinstance(built, GenerativeEngine):
                raise TypeError(
                    f"engine factory returned {type(built).__name__}, not a GenerativeEngine"
                )
        return engines

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> list[RecommendationService]:
        """The per-worker services (read-only introspection: stats, caches)."""
        return [worker.service for worker in self._workers]

    @property
    def backlog(self) -> int:
        """Undelivered requests across the whole fleet."""
        return sum(worker.backlog for worker in self._workers)

    def worker_stats(self) -> list[ServingStats]:
        """Each worker's decode-path counters, in worker order."""
        return [worker.service.stats for worker in self._workers]

    @property
    def shed_requests(self) -> int:
        """Total requests shed anywhere: front door, full queues, deadlines."""
        return self.stats.rejected + sum(
            stats.shed_queue_full + stats.shed_deadline for stats in self.worker_stats()
        )

    @property
    def degraded_requests(self) -> int:
        """Total requests the retrieval fast lane served, fleet-wide.

        Front-door degraded serves (saturation) plus every worker's
        queue-overflow, deadline and cold-start fallback serves.  Disjoint
        from :attr:`shed_requests` — degraded requests got a ranking.
        """
        return self.stats.degraded + sum(
            stats.degraded_queue_full + stats.degraded_deadline + stats.degraded_cold_start
            for stats in self.worker_stats()
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """Whether the worker background loops are active (all-or-none)."""
        return any(worker.service.is_running for worker in self._workers)

    def start(self) -> "ServingCluster":
        """Start every worker's background loop; returns self for chaining.

        If any worker fails to start, the ones already started are
        stopped again (no half-started fleet).
        """
        started: list[_Worker] = []
        try:
            for worker in self._workers:
                worker.service.start()
                started.append(worker)
        except Exception:
            for worker in started:
                worker.service.stop(drain=False)
            raise
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop every worker, by default draining all in-flight work.

        Workers are stopped in order, each draining its own queue and
        in-flight decodes before its thread joins; after ``stop(drain=True)``
        returns, every handle submitted before the call is resolved
        (delivered, shed, or failed).  Idempotent.
        """
        for worker in self._workers:
            worker.service.stop(drain=drain)

    # ------------------------------------------------------------------
    # Routing and admission
    # ------------------------------------------------------------------
    def _has_room(self, worker: _Worker) -> bool:
        return self.max_backlog is None or worker.backlog < self.max_backlog

    def _least_loaded(self) -> _Worker | None:
        """The admissible worker with the smallest backlog (stable on ties)."""
        candidates = [worker for worker in self._workers if self._has_room(worker)]
        return min(candidates, key=lambda worker: (worker.backlog, worker.index), default=None)

    def _admit(self, session_key: str | None) -> tuple[_Worker | None, str]:
        """Pick a worker (affine, else least loaded) and its routing counter.

        No worker means every one is at its backlog bound.
        """
        if session_key is not None:
            affine = self._workers[self.router.affine_worker(session_key)]
            if self._has_room(affine):
                return affine, "affine"
        return self._least_loaded(), "keyless" if session_key is None else "spilled"

    def _route(
        self,
        submit: Callable[[RecommendationService], PendingRecommendation],
        session_key: str | None,
        top_k: int,
        deadline_ms: float | None,
        history: list[int] | None = None,
    ) -> PendingRecommendation:
        # Arguments first: no lane may answer a submit that should raise.
        check_top_k(top_k)
        check_deadline_ms(deadline_ms)
        worker, kind = self._admit(session_key)
        if worker is None:
            return turn_away(
                self.stats, "queue_full", self.fallback, history, top_k,
                served="degraded", shed="rejected",
                message=f"all {self.num_workers} workers at backlog bound {self.max_backlog}",
            )
        handle = submit(worker.service)  # a submit that raises moves no counter
        self.stats.count(kind, worker.index)
        return handle

    # ------------------------------------------------------------------
    # The client surface
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
        """Route + queue a next-item recommendation for a history.

        ``session_key`` (user or session id) drives affinity placement;
        ``deadline_ms`` is the request's shed budget at its worker.
        """
        history = list(history)
        engine = self._workers[0].service.engine
        check_template_id(template_id, engine.num_templates)
        check_history(history, engine.num_items)
        return self._route(
            lambda service: service.submit(
                history,
                top_k=top_k,
                template_id=template_id,
                session_key=session_key,
                deadline_ms=deadline_ms,
            ),
            session_key,
            top_k,
            deadline_ms,
            history=history,
        )

    def submit_intention(
        self,
        intention_text: str,
        top_k: int = 10,
        *,
        session_key: str | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRecommendation:
        """Route + queue an intention-query retrieval."""
        return self._route(
            lambda service: service.submit_intention(
                intention_text, top_k=top_k, session_key=session_key, deadline_ms=deadline_ms
            ),
            session_key,
            top_k,
            deadline_ms,
        )

    def submit_instruction(
        self,
        instruction: str,
        top_k: int = 10,
        *,
        session_key: str | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRecommendation:
        """Route + queue an already-rendered instruction."""
        return self._route(
            lambda service: service.submit_instruction(
                instruction, top_k=top_k, session_key=session_key, deadline_ms=deadline_ms
            ),
            session_key,
            top_k,
            deadline_ms,
        )

    def flush(self) -> int:
        """Flush every worker's queue, then re-raise the first error; returns requests served."""
        outcomes = [service._drain() for service in self.workers]
        errors = [error for _, error in outcomes if error is not None]
        if errors:
            raise errors[0]
        return sum(served for served, _ in outcomes)

    def ingest_item(
        self,
        *,
        text: str | None = None,
        embedding=None,
    ):
        """Add one item to the fleet's shared live catalog.

        Replicated engines share their :class:`repro.core.LiveCatalog`
        *reference* (:meth:`TrieDecoderEngine.replicate` copies the
        attribute, not the object), so one ingestion here publishes one
        new catalog version that every worker's next prefill observes —
        there is no per-worker propagation step, and workers mid-decode
        finish against their pinned versions.  A ``fallback=catalog`` or
        ``HybridRecommender(engine, catalog)`` follows the new version
        fleet-wide by itself; configured lanes are left as they are.
        Returns the catalog's :class:`repro.core.IngestedItem`.
        """
        catalogs = {
            id(catalog): catalog
            for worker in self._workers
            if (catalog := getattr(worker.service.engine, "catalog", None)) is not None
        }
        if not catalogs:
            raise RuntimeError(
                "no worker engine has a live catalog attached; attach one to the "
                "seed engine before building the cluster"
            )
        if len(catalogs) > 1:
            # Factory-provisioned fleets may attach distinct catalogs;
            # ingesting through the cluster would silently diverge them.
            raise RuntimeError(
                "workers serve from different live catalogs; ingest into the "
                "intended catalog object directly"
            )
        (catalog,) = catalogs.values()
        return catalog.ingest(text=text, embedding=embedding)
