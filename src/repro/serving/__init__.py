"""Batched recommendation serving: queue, micro-batcher, engine, service.

The package turns any generative recommender into a deployment-shaped
service.  A :class:`GenerativeEngine` adapter translates between the
serving layer and one concrete model — :class:`LCRecEngine` over a built
:class:`repro.core.LCRec`, :class:`TIGEREngine` over a fitted TIGER,
:class:`P5CIDEngine` over a fitted P5-CID, or your own (see
``docs/serving.md``, "Writing an engine adapter").  Producers push
:class:`RecommendRequest`\\ s into a thread-safe :class:`RequestQueue`,
the :class:`MicroBatcher` plans length-bucketed micro-batches, and
:class:`RecommendationService` decodes them through the engine on one
:class:`ContinuousScheduler` tick — closed batches admitted into an idle
scheduler, synchronously via ``flush()`` or by a deadline-batched
background loop (``start()``/``stop()``), or with no deadline wait
(``mode="continuous"``): the queue's head is admitted the moment the
scheduler is idle.  Every decode is a closed cohort — one prefill's rows,
stepped in lockstep and retired together.  A cross-request
:class:`repro.llm.PrefixKVCache` (re-exported here) skips re-running
prompt prefixes shared between requests, for engines advertising
``supports_prefix_cache``.

Scaling past one decode thread, :class:`ServingCluster` runs N workers —
each a ``RecommendationService`` over a private engine replica — behind a
rendezvous-hash :class:`AffinityRouter` (session traffic sticks to the
worker holding its prompt K/V) with bounded per-worker backlogs,
least-loaded spillover and deadline-based load shedding (typed
:class:`Overloaded` rejections).  A configured
:class:`FallbackRecommender` (the retrieval fast lane of
``repro.retrieval``) upgrades shedding to graceful degradation: requests
that would be rejected are served from retrieval instead, on handles
flagged ``degraded``.  Every mode, single-process or cluster, speaks the
one :class:`RecommendationClient` surface:
``submit(...) -> RecommendationHandle`` / ``handle.result(timeout)``.

See ``docs/serving.md`` for the architecture, tuning guidance, and the
prefix-cache invalidation contract, and ``examples/serving_async.py`` for
a runnable walkthrough.
"""

from ..llm import PrefixCacheStats, PrefixKVCache
from .api import (
    DegradedRecommendation,
    FallbackRecommender,
    Overloaded,
    RecommendationClient,
    RecommendationHandle,
    RejectedRecommendation,
)
from .batcher import (
    MicroBatcher,
    MicroBatcherConfig,
    padding_fraction,
    plan_batches,
)
from .cluster import ClusterStats, ServingCluster
from .continuous import ContinuousScheduler
from .engine import (
    EngineState,
    GenerativeEngine,
    LCRecEngine,
    P5CIDEngine,
    TIGEREngine,
    TrieDecoderEngine,
)
from .queue import RecommendRequest, RequestQueue
from .router import AffinityRouter, rendezvous_weight
from .service import (
    PendingRecommendation,
    RecommendationService,
    ServingStats,
    refresh_retrieval_tier,
)

__all__ = [
    "RecommendRequest",
    "RequestQueue",
    "MicroBatcher",
    "MicroBatcherConfig",
    "plan_batches",
    "padding_fraction",
    "ContinuousScheduler",
    "EngineState",
    "GenerativeEngine",
    "TrieDecoderEngine",
    "LCRecEngine",
    "P5CIDEngine",
    "TIGEREngine",
    "Overloaded",
    "RecommendationClient",
    "RecommendationHandle",
    "RejectedRecommendation",
    "DegradedRecommendation",
    "FallbackRecommender",
    "PendingRecommendation",
    "RecommendationService",
    "ServingStats",
    "refresh_retrieval_tier",
    "AffinityRouter",
    "rendezvous_weight",
    "ClusterStats",
    "ServingCluster",
    "PrefixKVCache",
    "PrefixCacheStats",
]
