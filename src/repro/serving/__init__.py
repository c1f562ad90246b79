"""Batched recommendation serving: queue, micro-batcher, engine, service.

The package turns any generative recommender into a deployment-shaped
service.  A :class:`GenerativeEngine` adapter translates between the
serving layer and one concrete model — :class:`LCRecEngine` over a built
:class:`repro.core.LCRec`, :class:`TIGEREngine` over a fitted TIGER,
:class:`P5CIDEngine` over a fitted P5-CID, or your own (see
``docs/serving.md``, "Writing an engine adapter").  Producers push
:class:`RecommendRequest`\\ s into a thread-safe :class:`RequestQueue`,
the :class:`MicroBatcher` plans length-bucketed micro-batches, and
:class:`RecommendationService` decodes each cohort in one
:meth:`GenerativeEngine.decode` call — closed batches synchronously via
``flush()`` or by a deadline-batched background loop
(``start()``/``stop()``), or with no deadline wait (``mode="continuous"``):
the queue's head is the next cohort as soon as the last one is
delivered.  Every decode is a closed cohort — one prefill's rows, stepped
in lockstep and harvested together.  A cross-request
:class:`repro.llm.PrefixKVCache` (re-exported here) skips re-running
prompt prefixes shared between requests, for engines that hold one
(``engine.prefix_cache``).

Scaling past one decode thread, :class:`ServingCluster` runs N workers —
each a ``RecommendationService`` over a private engine replica — behind a
rendezvous-hash :class:`AffinityRouter` (session traffic sticks to the
worker holding its prompt K/V) with bounded per-worker backlogs,
least-loaded spillover and deadline-based load shedding.

Every mode, single-process or cluster, speaks the one
:class:`RecommendationClient` surface and returns one handle class:
``submit(...) -> PendingRecommendation`` / ``handle.result(timeout)``.
A request the LLM lane does not decode — cold start, no hybrid
candidates, a full queue, an expired deadline, a saturated cluster —
takes one turn-away path (:func:`repro.serving.api.turn_away`): with a
configured :class:`FallbackRecommender` (the retrieval tier of
``repro.retrieval``) its handle resolves with a retrieval ranking,
flagged ``degraded``; without one it fails with a typed
:class:`Overloaded`.

See ``docs/serving.md`` for the architecture, tuning guidance, and the
prefix-cache invalidation contract, and ``examples/serving_async.py`` for
a runnable walkthrough.
"""

from ..llm import PrefixCacheStats, PrefixKVCache
from .api import (
    FallbackRecommender,
    Overloaded,
    PendingRecommendation,
    RecommendationClient,
)
from .batcher import (
    MicroBatcher,
    MicroBatcherConfig,
    padding_fraction,
    plan_batches,
)
from .cluster import ClusterStats, ServingCluster
from .engine import (
    GenerativeEngine,
    LCRecEngine,
    P5CIDEngine,
    TIGEREngine,
    TrieDecoderEngine,
)
from .queue import RecommendRequest, RequestQueue
from .router import AffinityRouter, rendezvous_weight
from .service import RecommendationService, ServingStats

__all__ = [
    "RecommendRequest",
    "RequestQueue",
    "MicroBatcher",
    "MicroBatcherConfig",
    "plan_batches",
    "padding_fraction",
    "GenerativeEngine",
    "TrieDecoderEngine",
    "LCRecEngine",
    "P5CIDEngine",
    "TIGEREngine",
    "Overloaded",
    "RecommendationClient",
    "FallbackRecommender",
    "PendingRecommendation",
    "RecommendationService",
    "ServingStats",
    "AffinityRouter",
    "rendezvous_weight",
    "ClusterStats",
    "ServingCluster",
    "PrefixKVCache",
    "PrefixCacheStats",
]
