"""Every way a submit can end, on both clients, through one handle class.

A request is decoded, served from a retrieval tier (``degraded``), or
failed with a typed ``Overloaded`` — and whichever it is, ``submit*``
returns a :class:`repro.serving.PendingRecommendation` carrying a real
request id, and exactly one outcome counter moves by exactly one.  The
argument checks run before any of those lanes.
"""

import time

import numpy as np
import pytest

from repro.baselines import TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set
from repro.serving import (
    ClusterStats,
    LCRecEngine,
    MicroBatcherConfig,
    Overloaded,
    PendingRecommendation,
    RecommendationService,
    ServingCluster,
    TIGEREngine,
)

BATCHER = MicroBatcherConfig(max_batch_size=4)
TOP_K = 3
# The two tiers answer differently, so a result names the tier that served it.
FALLBACK_RANKING = [0, 1, 2]
HYBRID_RANKING = [2, 1, 0]
# Request ids of every handle the matrix has seen, across all its cases.
SEEN_REQUEST_IDS: set[int] = set()


class StubFallback:
    def recommend(self, history, top_k=10):
        return FALLBACK_RANKING[:top_k]


class StubRetriever:
    def profile(self, history):
        return None if not history else object()

    def recommend(self, history, top_k=10):
        return HYBRID_RANKING[:top_k]


class StubHybrid:
    """A hybrid lane whose warm histories have no decodable candidates."""

    def __init__(self):
        self.retriever = StubRetriever()

    def candidates(self, history, top_k):
        return []


def make_client(kind, model, *, fallback=False, hybrid=False, max_backlog=None):
    options = dict(batcher=BATCHER, fallback=StubFallback() if fallback else None)
    if kind == "service":
        hybrid = StubHybrid() if hybrid else None
        return RecommendationService(LCRecEngine(model), hybrid=hybrid, **options)
    assert not hybrid, "a cluster has no hybrid lane"
    return ServingCluster(LCRecEngine(model), num_workers=1, max_backlog=max_backlog, **options)


def the_service(client):
    return client if isinstance(client, RecommendationService) else client.workers[0]


def outcome_counters(client):
    """Every per-request outcome counter of ``client`` (routing counters excluded)."""
    stats = the_service(client).stats
    counters = {
        name: getattr(stats, name)
        for name in (
            "requests",
            "shed_queue_full",
            "shed_deadline",
            "degraded_queue_full",
            "degraded_deadline",
            "degraded_cold_start",
            "hybrid_narrowed",
            "hybrid_retrieval",
        )
    }
    if isinstance(client, ServingCluster):
        counters["cluster.degraded"] = client.stats.degraded
        counters["cluster.rejected"] = client.stats.rejected
    return counters


def fill_queue(client, history):
    """Leave one request queued and bound the queue at it."""
    client.submit(history, top_k=TOP_K)
    the_service(client).queue.max_depth = 1


def fill_front_door(client, history):
    client.submit(history, top_k=TOP_K)


def expire(client, submit):
    handle = submit(deadline_ms=1.0)
    time.sleep(0.01)
    client.flush()
    return handle


# name: (client options, setup, act, expected counter, degraded_reason, outcome)
# ``outcome`` is the expected ranking ("decode" for the oracle) or the
# ``Overloaded.reason``.
CASES = {
    "decoded": (
        {}, None, lambda c, h: c.submit(h, top_k=TOP_K), "requests", None, "decode",
    ),
    "instruction_decoded": (
        {}, None, lambda c, h: c.submit_instruction("a gift", top_k=TOP_K),
        "requests", None, "instruction",
    ),
    "cold_start_fallback": (
        {"fallback": True}, None, lambda c, h: c.submit([], top_k=TOP_K),
        "degraded_cold_start", "cold_start", FALLBACK_RANKING,
    ),
    "hybrid_cold_start": (
        {"hybrid": True, "fallback": True}, None, lambda c, h: c.submit([], top_k=TOP_K),
        "hybrid_retrieval", "cold_start", HYBRID_RANKING,
    ),
    "hybrid_no_candidates": (
        {"hybrid": True}, None, lambda c, h: c.submit(h, top_k=TOP_K),
        "hybrid_retrieval", "no_candidates", HYBRID_RANKING,
    ),
    "queue_full_fallback": (
        {"fallback": True}, fill_queue, lambda c, h: c.submit(h, top_k=TOP_K),
        "degraded_queue_full", "queue_full", FALLBACK_RANKING,
    ),
    "queue_full": (
        {}, fill_queue, lambda c, h: c.submit(h, top_k=TOP_K),
        "shed_queue_full", None, Overloaded("", "queue_full"),
    ),
    "intention_queue_full_fallback": (
        {"fallback": True}, fill_queue, lambda c, h: c.submit_intention("a gift", top_k=TOP_K),
        "shed_queue_full", None, Overloaded("", "queue_full"),
    ),
    "deadline_fallback": (
        {"fallback": True}, None,
        lambda c, h: expire(c, lambda **kw: c.submit(h, top_k=TOP_K, **kw)),
        "degraded_deadline", "deadline", FALLBACK_RANKING,
    ),
    "deadline": (
        {}, None, lambda c, h: expire(c, lambda **kw: c.submit(h, top_k=TOP_K, **kw)),
        "shed_deadline", None, Overloaded("", "deadline"),
    ),
    "front_door_fallback": (
        {"fallback": True, "max_backlog": 1}, fill_front_door,
        lambda c, h: c.submit(h, top_k=TOP_K),
        "cluster.degraded", "queue_full", FALLBACK_RANKING,
    ),
    "front_door": (
        {"max_backlog": 1}, fill_front_door,
        lambda c, h: c.submit_instruction("a gift", top_k=TOP_K),
        "cluster.rejected", None, Overloaded("", "queue_full"),
    ),
}
MATRIX = [
    (kind, case)
    for case in CASES
    for kind in ("service", "cluster")
    if not case.startswith("front_door" if kind == "service" else "hybrid")
]


@pytest.mark.parametrize("kind, case", MATRIX)
def test_outcome_matrix(tiny_lcrec, tiny_dataset, kind, case):
    options, setup, act, counter, degraded_reason, outcome = CASES[case]
    history = list(tiny_dataset.split.test_histories[0])
    client = make_client(kind, tiny_lcrec, **options)
    if setup is not None:
        setup(client, history)
    before = outcome_counters(client)
    handle = act(client, history)
    if outcome in ("decode", "instruction"):
        client.flush()
    after = outcome_counters(client)

    assert isinstance(handle, PendingRecommendation) and handle.done
    assert handle.degraded == (degraded_reason is not None)
    assert handle.degraded_reason == degraded_reason
    if isinstance(outcome, Overloaded):
        with pytest.raises(Overloaded) as shed:
            handle.result(timeout=0.0)
        assert shed.value.reason == outcome.reason
    elif outcome == "decode":
        assert handle.result() == tiny_lcrec.recommend(history, top_k=TOP_K)
    elif outcome == "instruction":
        assert handle.result() == tiny_lcrec.recommend_from_instruction("a gift", top_k=TOP_K)
    else:
        assert handle.result() == outcome
    assert handle.request_id >= 0 and handle.request_id not in SEEN_REQUEST_IDS
    SEEN_REQUEST_IDS.add(handle.request_id)
    moved = {name: after[name] - before[name] for name in after if after[name] != before[name]}
    assert moved == {counter: 1}
    client.flush()


class TestArgumentsCheckedBeforeAnyLane:
    """A bad ``deadline_ms`` or ``template_id`` raises on every lane, and
    nothing is counted."""

    # LC-Rec renders templates 0-3; a bool or a float is no template id.
    @pytest.mark.parametrize("template_id", [-1, 4, True, 1.5])
    def test_template_id(self, tiny_lcrec, tiny_dataset, template_id):
        history = list(tiny_dataset.split.test_histories[0])
        lanes = (
            (dict(fallback=True), []),  # cold start
            (dict(hybrid=True), []),  # hybrid, no profile
            (dict(hybrid=True), history),  # hybrid, no candidates
            ({}, history),  # decode
        )
        for kind in ("service", "cluster"):
            for options, submitted in lanes:
                if kind == "cluster" and options.get("hybrid"):
                    continue
                client = make_client(kind, tiny_lcrec, **options)
                with pytest.raises(ValueError, match="template_id"):
                    client.submit(submitted, top_k=TOP_K, template_id=template_id)
                assert not any(outcome_counters(client).values())
                assert not the_service(client).queue and the_service(client).backlog == 0
                if kind == "cluster":
                    assert client.stats.submitted == 0 and not client.stats.per_worker
        with pytest.raises(ValueError, match="template_id"):
            LCRecEngine(tiny_lcrec).encode_history(history, template_id)

    @pytest.mark.parametrize("deadline_ms", [0.0, -1.0, float("inf"), float("nan")])
    def test_cold_start_lane(self, tiny_lcrec, deadline_ms):
        for kind in ("service", "cluster"):
            client = make_client(kind, tiny_lcrec, fallback=True)
            with pytest.raises(ValueError, match="deadline_ms"):
                client.submit([], top_k=TOP_K, deadline_ms=deadline_ms)
            assert the_service(client).stats.degraded_cold_start == 0

    def test_hybrid_lane(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        service = make_client("service", tiny_lcrec, hybrid=True)
        for submitted in ([], history):
            with pytest.raises(ValueError, match="deadline_ms"):
                service.submit(submitted, top_k=TOP_K, deadline_ms=0.0)
        assert service.stats.hybrid_retrieval == 0

    def test_saturated_front_door(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        cluster = make_client("cluster", tiny_lcrec, fallback=True, max_backlog=1)
        cluster.submit(history, top_k=TOP_K)
        submits = (
            lambda: cluster.submit(history, top_k=TOP_K, deadline_ms=-1.0),
            lambda: cluster.submit_intention("a gift", top_k=TOP_K, deadline_ms=-1.0),
            lambda: cluster.submit_instruction("a gift", top_k=TOP_K, deadline_ms=-1.0),
        )
        for submit in submits:
            with pytest.raises(ValueError, match="deadline_ms"):
                submit()
        assert (cluster.stats.submitted, cluster.stats.degraded, cluster.stats.rejected) == (
            1, 0, 0
        )
        cluster.flush()

    def test_a_worker_submit_that_raises_is_not_counted(self, tiny_lcrec, tiny_dataset):
        # The front door checks worker 0 (LC-Rec: four templates, intentions);
        # worker 1's TIGER engine has one template and no intention encoder.
        tiger = TIGER(
            build_random_index_set(tiny_dataset.num_items, 3, 8, np.random.default_rng(0)),
            TIGERConfig(dim=16),
        )
        tiger.eval()
        engines = iter([LCRecEngine(tiny_lcrec), TIGEREngine(tiger)])
        cluster = ServingCluster(lambda: next(engines), num_workers=2, batcher=BATCHER)
        key = next(k for k in map(str, range(100)) if cluster.router.affine_worker(k) == 1)
        with pytest.raises(ValueError, match="template_id"):
            cluster.submit([1, 2], top_k=TOP_K, template_id=1, session_key=key)
        with pytest.raises(NotImplementedError):
            cluster.submit_intention("a gift", top_k=TOP_K, session_key=key)
        assert cluster.stats == ClusterStats()
        assert cluster.workers[1].backlog == 0
        cluster.submit([1, 2], top_k=TOP_K, session_key=key)
        assert (cluster.stats.submitted, cluster.stats.affine, cluster.stats.per_worker) == (
            1, 1, {1: 1}
        )
        cluster.flush()

    def test_failed_narrowed_submit_is_not_counted(self, tiny_lcrec, tiny_dataset, monkeypatch):
        from repro.retrieval import ClusteredKNNConfig, HybridRecommender, RetrievalRecommender

        engine = LCRecEngine(tiny_lcrec)
        retriever = RetrievalRecommender.from_lcrec(
            tiny_lcrec, ClusteredKNNConfig(n_clusters=4, n_probe=2)
        )
        service = RecommendationService(engine, hybrid=HybridRecommender(engine, retriever))
        history = list(tiny_dataset.split.test_histories[0])

        def broken(history, template_id=0):
            raise RuntimeError("encode failed")

        monkeypatch.setattr(engine, "encode_history", broken)
        with pytest.raises(RuntimeError, match="encode failed"):
            service.submit(history, top_k=TOP_K)
        assert service.stats.hybrid_narrowed == 0
        monkeypatch.undo()
        service.submit(history, top_k=TOP_K)
        assert service.stats.hybrid_narrowed == 1
        service.flush()
