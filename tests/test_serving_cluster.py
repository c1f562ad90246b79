"""Multi-worker cluster serving: routing, admission control, shedding.

Acceptance contracts pinned here:

* a 1-worker cluster returns rankings bit-identical to a plain
  ``RecommendationService`` over the same engine (sync and async);
* rendezvous affinity is deterministic, balanced, and stable under
  worker-count changes (growing the fleet moves only the keys the new
  worker wins; shrinking it moves only the removed worker's keys);
* admission control sheds with typed ``Overloaded`` results — bounded
  backlogs at the front door, deadline expiry at the workers — and the
  deadline-vs-completion race resolves to exactly one outcome per handle;
* with a configured retrieval fallback, would-be-shed history requests
  are *served* degraded instead (flagged handles, counted separately
  from shedding), empty histories short-circuit to the cold-start lane,
  and intention/instruction submits keep their plain rejections;
* ``stop()`` drains every worker: all handles submitted before the call
  are resolved;
* engine replicas share weights but own their mutable serving state.
"""

import threading
import time

import numpy as np
import pytest

from repro.baselines import TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set
from repro.serving import (
    AffinityRouter,
    ClusterStats,
    FallbackRecommender,
    GenerativeEngine,
    LCRecEngine,
    MicroBatcherConfig,
    Overloaded,
    PendingRecommendation,
    RecommendationClient,
    RecommendationService,
    RequestQueue,
    RecommendRequest,
    ServingCluster,
    TIGEREngine,
    rendezvous_weight,
)

BATCHER = MicroBatcherConfig(max_batch_size=4)


def oracle(model, histories, top_k):
    return RecommendationService(
        LCRecEngine(model, prefix_cache=None), batcher=BATCHER
    ).recommend_many(histories, top_k=top_k)


class TestAffinityRouter:
    def test_deterministic_and_in_range(self):
        router = AffinityRouter(5)
        keys = [f"user:{i}" for i in range(200)]
        placed = [router.affine_worker(k) for k in keys]
        assert placed == [router.affine_worker(k) for k in keys]
        assert set(placed) <= set(range(5))
        # Every worker gets a usable share of 200 uniform keys.
        counts = np.bincount(placed, minlength=5)
        assert counts.min() > 0

    def test_weight_is_pythonhashseed_independent(self):
        # Pinned value: a keyed BLAKE2b digest, not hash() — the same
        # session must map identically across interpreter restarts.
        assert rendezvous_weight("user:1", 0) == rendezvous_weight("user:1", 0)
        assert rendezvous_weight("user:1", 0) != rendezvous_weight("user:1", 1)
        assert rendezvous_weight("a\x000", 0) != rendezvous_weight("a", 0)

    def test_growing_fleet_moves_only_keys_the_new_worker_wins(self):
        keys = [f"user:{i}" for i in range(500)]
        before = {k: AffinityRouter(4).affine_worker(k) for k in keys}
        after = {k: AffinityRouter(5).affine_worker(k) for k in keys}
        moved = [k for k in keys if before[k] != after[k]]
        # Rendezvous property: a key moves only by being won by the new
        # worker — nothing reshuffles between surviving workers.
        assert all(after[k] == 4 for k in moved)
        # Expected moved fraction is 1/5; allow generous sampling slack.
        assert len(moved) / len(keys) < 0.35

    def test_shrinking_fleet_moves_only_the_removed_workers_keys(self):
        keys = [f"user:{i}" for i in range(500)]
        before = {k: AffinityRouter(5).affine_worker(k) for k in keys}
        after = {k: AffinityRouter(4).affine_worker(k) for k in keys}
        for key in keys:
            if before[key] != 4:  # survivors keep their placement
                assert after[key] == before[key]


class TestUnifiedClientSurface:
    def test_both_clients_speak_the_protocol(self, tiny_lcrec):
        service = RecommendationService(LCRecEngine(tiny_lcrec))
        cluster = ServingCluster(LCRecEngine(tiny_lcrec), num_workers=2)
        assert isinstance(service, RecommendationClient)
        assert isinstance(cluster, RecommendationClient)


class TestEngineReplication:
    def test_replica_shares_weights_but_not_caches(self, tiny_lcrec):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=True)
        replica = engine.replicate()
        assert replica is not engine
        assert replica.lm is not engine.lm
        # Weights shared by identity: replication must not copy arrays.
        assert replica.lm.lm_head.weight.data is engine.lm.lm_head.weight.data
        assert replica.lm.tok_embeddings is engine.lm.tok_embeddings
        # Mutable serving state private: memo and prefix cache.
        assert replica.lm._head_gather_cache is not engine.lm._head_gather_cache
        assert replica.prefix_cache is not engine.prefix_cache
        assert replica.prefix_cache.max_entries == engine.prefix_cache.max_entries
        assert replica.trie is engine.trie  # read-mostly, shared

    def test_cacheless_engine_replicates_cacheless(self, tiny_lcrec):
        replica = LCRecEngine(tiny_lcrec, prefix_cache=None).replicate()
        assert replica.prefix_cache is None

    def test_replica_rankings_identical(self, tiny_lcrec, tiny_dataset):
        histories = [list(h) for h in tiny_dataset.split.test_histories[:4]]
        engine = LCRecEngine(tiny_lcrec)
        assert engine.replicate().recommend_many(histories, top_k=5) == oracle(
            tiny_lcrec, histories, 5)

    def test_unreplicatable_engine_needs_a_factory(self, tiny_lcrec):
        class NoReplication(LCRecEngine):
            replicate = GenerativeEngine.replicate

        with pytest.raises(NotImplementedError, match="factory"):
            ServingCluster(NoReplication(tiny_lcrec), num_workers=2)
        # A factory provisions workers without replicate().
        cluster = ServingCluster(lambda: NoReplication(tiny_lcrec), num_workers=2)
        assert cluster.num_workers == 2

    def test_factory_must_return_engines(self):
        with pytest.raises(TypeError, match="GenerativeEngine"):
            ServingCluster(lambda: object(), num_workers=1)


class TestClusterParity:
    def test_single_worker_cluster_matches_service_sync(self, tiny_lcrec, tiny_dataset):
        histories = [list(h) for h in tiny_dataset.split.test_histories[:6]]
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec, prefix_cache=None), num_workers=1, batcher=BATCHER
        )
        assert cluster.recommend_many(histories, top_k=5) == oracle(tiny_lcrec, histories, 5)

    @pytest.mark.parametrize("mode", ["deadline", "continuous"])
    def test_multi_worker_cluster_matches_oracle_async(self, tiny_lcrec, tiny_dataset, mode):
        histories = [list(h) for h in tiny_dataset.split.test_histories[:8]]
        expected = oracle(tiny_lcrec, histories, 5)
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec), num_workers=3, batcher=BATCHER, mode=mode
        )
        with cluster:
            handles = [
                cluster.submit(h, top_k=5, session_key=f"user:{i}")
                for i, h in enumerate(histories)
            ]
            assert [h.result(timeout=60.0) for h in handles] == expected
        assert cluster.stats.submitted == len(histories)

    @pytest.fixture(scope="class")
    def tiger(self, tiny_dataset):
        index_set = build_random_index_set(
            tiny_dataset.num_items, 3, 8, np.random.default_rng(0)
        )
        tiger = TIGER(index_set, TIGERConfig(epochs=2, dim=16, beam_size=10))
        tiger.fit(tiny_dataset)
        return tiger

    def test_tiger_fleet_parity(self, tiger, tiny_dataset):
        histories = [list(h) for h in tiny_dataset.split.test_histories[:6]]
        expected = [tiger.recommend(h, top_k=5) for h in histories]
        cluster = ServingCluster(TIGEREngine(tiger), num_workers=2, batcher=BATCHER)
        with cluster:
            handles = [
                cluster.submit(h, top_k=5, session_key=f"u{i}")
                for i, h in enumerate(histories)
            ]
            assert [h.result(timeout=60.0) for h in handles] == expected

    def test_mixed_fleet_matches_each_workers_oracle(self, tiny_lcrec, tiger, tiny_dataset):
        # The factory runs once per worker: worker 0 decodes LC-Rec, worker 1 TIGER.
        engines = iter([LCRecEngine(tiny_lcrec), TIGEREngine(tiger)])
        cluster = ServingCluster(lambda: next(engines), num_workers=2, batcher=BATCHER)
        models = (tiny_lcrec, tiger)
        keys = [f"user:{i}" for i in range(8)]
        pinned = [cluster.router.affine_worker(key) for key in keys]
        assert set(pinned) == {0, 1}
        histories = [list(h) for h in tiny_dataset.split.test_histories[: len(keys)]]
        with cluster:
            handles = [
                cluster.submit(h, top_k=5, session_key=key) for key, h in zip(keys, histories)
            ]
            rankings = [handle.result(timeout=60.0) for handle in handles]
        assert cluster.stats.affine == len(keys)
        assert rankings == [
            models[worker].recommend(h, top_k=5) for worker, h in zip(pinned, histories)
        ]


class TestRoutingPolicies:
    def test_affine_requests_stick_to_one_worker(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        cluster = ServingCluster(LCRecEngine(tiny_lcrec), num_workers=4, batcher=BATCHER)
        with cluster:
            handles = [
                cluster.submit(history, top_k=3, session_key="user:7") for _ in range(6)
            ]
            for handle in handles:
                handle.result(timeout=60.0)
        assert cluster.stats.affine == 6 and cluster.stats.spilled == 0
        assert cluster.stats.affinity_hit_rate == 1.0
        served = [stats.requests for stats in cluster.worker_stats()]
        assert sorted(served) == [0, 0, 0, 6]  # one worker saw everything

    def test_keyless_requests_balance_least_loaded(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        cluster = ServingCluster(LCRecEngine(tiny_lcrec), num_workers=3, batcher=BATCHER)
        # Not started: backlogs grow as we submit, so least-loaded placement
        # must round-robin the fleet deterministically.
        handles = [cluster.submit(history, top_k=3) for _ in range(6)]
        assert cluster.stats.keyless == 6
        assert [cluster.workers[i].backlog for i in range(3)] == [2, 2, 2]
        cluster.flush()
        for handle in handles:
            assert len(handle.result()) == 3


class TestAdmissionControl:
    def test_spillover_when_affine_worker_saturated(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec), num_workers=2, batcher=BATCHER, max_backlog=1
        )
        first = cluster.submit(history, top_k=3, session_key="user:1")
        second = cluster.submit(history, top_k=3, session_key="user:1")
        assert cluster.stats.affine == 1 and cluster.stats.spilled == 1
        third = cluster.submit(history, top_k=3, session_key="user:1")
        assert cluster.stats.rejected == 1
        assert isinstance(third, PendingRecommendation) and third.done
        with pytest.raises(Overloaded, match="backlog") as shed:
            third.result()
        assert shed.value.reason == "queue_full"
        cluster.flush()
        assert first.result() == second.result()

    def test_shed_requests_counter_spans_all_guards(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec), num_workers=1, batcher=BATCHER, max_backlog=2
        )
        cluster.submit(history, top_k=3, deadline_ms=0.01)
        cluster.submit(history, top_k=3)
        cluster.submit(history, top_k=3)  # over the backlog bound: rejected
        time.sleep(0.005)
        cluster.flush()
        assert cluster.stats.rejected == 1
        assert cluster.worker_stats()[0].shed_deadline == 1
        assert cluster.shed_requests == 2


class TestDeadlineShedding:
    def test_expired_while_queued_is_shed(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        service = RecommendationService(LCRecEngine(tiny_lcrec), batcher=BATCHER)
        handle = service.submit(history, top_k=3, deadline_ms=1.0)
        time.sleep(0.01)
        assert service.flush() == 0  # nothing live to decode
        with pytest.raises(Overloaded) as shed:
            handle.result(timeout=1.0)
        assert shed.value.reason == "deadline"
        assert service.stats.shed_deadline == 1

    def test_unexpired_deadline_completes_normally(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        service = RecommendationService(LCRecEngine(tiny_lcrec), batcher=BATCHER)
        handle = service.submit(history, top_k=3, deadline_ms=60_000.0)
        service.flush()
        assert len(handle.result()) == 3
        assert service.stats.shed_deadline == 0

    @pytest.mark.parametrize("mode", ["deadline", "continuous"])
    def test_race_resolves_to_exactly_one_outcome(self, tiny_lcrec, tiny_dataset, mode):
        """Deadlines racing completions: every handle resolves exactly once.

        Deadlines are drawn around the per-request service time, so some
        requests shed and some complete — but no handle may hang, raise
        *and* deliver, or deliver twice.
        """
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(24)]
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=BATCHER, deadline_ms=5.0, mode=mode
        )
        outcomes: list[str] = []
        with service:
            handles = [
                service.submit(h, top_k=3, deadline_ms=1.0 + 7.0 * (i % 4))
                for i, h in enumerate(histories)
            ]
            for handle in handles:
                try:
                    ranking = handle.result(timeout=60.0)
                    assert len(ranking) == 3
                    outcomes.append("served")
                except Overloaded as shed:
                    assert shed.reason == "deadline"
                    outcomes.append("shed")
        assert len(outcomes) == len(histories)
        assert service.stats.shed_deadline == outcomes.count("shed")
        assert service.stats.requests == outcomes.count("served")

    def test_deadline_validation(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        engine = LCRecEngine(tiny_lcrec)
        service = RecommendationService(engine)
        # A NaN budget used to pass and never expire.
        for deadline_ms in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="deadline_ms"):
                service.submit(history, deadline_ms=deadline_ms)


class TestBoundedQueue:
    def test_try_push_refuses_overflow(self):
        queue = RequestQueue(max_depth=2)
        assert queue.try_push(RecommendRequest(prompt_ids=[1]))
        assert queue.try_push(RecommendRequest(prompt_ids=[2]))
        assert not queue.try_push(RecommendRequest(prompt_ids=[3]))
        queue.drain()
        assert queue.try_push(RecommendRequest(prompt_ids=[4]))

    def test_service_queue_depth_rejects_with_typed_handle(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=BATCHER, queue_depth=1
        )
        kept = service.submit(history, top_k=3)
        shed = service.submit(history, top_k=3)
        assert shed.done
        with pytest.raises(Overloaded) as err:
            shed.result()
        assert err.value.reason == "queue_full"
        assert service.stats.shed_queue_full == 1
        service.flush()
        assert len(kept.result()) == 3

    def test_depth_validation(self):
        with pytest.raises(ValueError, match="max_depth"):
            RequestQueue(max_depth=0)


class TestLifecycle:
    def test_stop_drains_all_workers(self, tiny_lcrec, tiny_dataset):
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(12)]
        cluster = ServingCluster(LCRecEngine(tiny_lcrec), num_workers=3, batcher=BATCHER)
        cluster.start()
        handles = [
            cluster.submit(h, top_k=3, session_key=f"user:{i}")
            for i, h in enumerate(histories)
        ]
        cluster.stop()  # drain=True: every submitted handle must resolve
        assert all(handle.done for handle in handles)
        assert [len(handle.result()) for handle in handles] == [3] * len(histories)
        assert not cluster.is_running
        cluster.stop()  # idempotent

    def test_flush_reaches_every_worker_before_raising(
        self, tiny_lcrec, tiny_dataset, monkeypatch
    ):
        """Regression: ``flush()`` summed the workers' flushes, so the first
        worker to raise left every later worker's queue undecoded."""
        history = list(tiny_dataset.split.test_histories[0])
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec, prefix_cache=None), num_workers=2, batcher=BATCHER
        )

        def broken(requests):
            raise RuntimeError("worker 0 blew up")

        monkeypatch.setattr(cluster.workers[0].engine, "prefill", broken)
        # Keyless submits balance least-loaded: one request per worker.
        doomed, healthy = (cluster.submit(history, top_k=3) for _ in range(2))
        assert [worker.backlog for worker in cluster.workers] == [1, 1]
        with pytest.raises(RuntimeError, match="worker 0 blew up"):
            cluster.flush()
        assert doomed.done and healthy.done and cluster.backlog == 0
        assert healthy.result() == tiny_lcrec.recommend(history, top_k=3)

    def test_concurrent_submitters_one_cluster(self, tiny_lcrec, tiny_dataset):
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(16)]
        expected = oracle(tiny_lcrec, histories, 3)
        cluster = ServingCluster(LCRecEngine(tiny_lcrec), num_workers=2, batcher=BATCHER)
        results: list[list[int] | None] = [None] * len(histories)

        def submit_and_wait(index: int) -> None:
            handle = cluster.submit(
                histories[index], top_k=3, session_key=f"user:{index % 5}"
            )
            results[index] = handle.result(timeout=60.0)

        with cluster:
            threads = [
                threading.Thread(target=submit_and_wait, args=(i,))
                for i in range(len(histories))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        assert results == expected

    def test_worker_introspection(self, tiny_lcrec):
        cluster = ServingCluster(LCRecEngine(tiny_lcrec), num_workers=2)
        assert cluster.num_workers == 2
        assert len(cluster.workers) == 2
        assert cluster.backlog == 0
        assert isinstance(cluster.stats, ClusterStats)
        assert all(isinstance(w.engine, GenerativeEngine) for w in cluster.workers)
        # Worker 0 drives the original engine; worker 1 a replica.
        assert cluster.workers[0].engine.lm is not cluster.workers[1].engine.lm

    def test_cluster_validation(self, tiny_lcrec):
        engine = LCRecEngine(tiny_lcrec)
        with pytest.raises(ValueError, match="num_workers"):
            ServingCluster(engine, num_workers=0)
        with pytest.raises(ValueError, match="max_backlog"):
            ServingCluster(engine, num_workers=1, max_backlog=0)


class TestPendingHandleSurface:
    def test_overloaded_reason_defaults(self):
        assert Overloaded("x").reason == "queue_full"
        assert Overloaded("x", reason="deadline").reason == "deadline"


class StubFallback:
    """A deterministic, call-counting retrieval fast lane for tests."""

    def __init__(self):
        self.calls = 0

    def recommend(self, history, top_k=10):
        self.calls += 1
        return list(range(top_k))


class TestDegradedFallback:
    """Shed-to-degraded: a configured fallback serves instead of rejecting."""

    def test_fallback_satisfies_the_protocol(self):
        assert isinstance(StubFallback(), FallbackRecommender)

    def test_queue_full_served_degraded(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        fallback = StubFallback()
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=BATCHER, queue_depth=1, fallback=fallback
        )
        kept = service.submit(history, top_k=3)
        degraded = service.submit(history, top_k=3)
        assert degraded.done and degraded.degraded
        assert degraded.result() == [0, 1, 2]
        assert fallback.calls == 1
        # Served is not shed: the degraded counter moves, the shed one
        # does not.
        assert service.stats.degraded_queue_full == 1
        assert service.stats.shed_queue_full == 0
        service.flush()
        assert len(kept.result()) == 3 and not kept.degraded

    def test_deadline_expiry_served_degraded(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        fallback = StubFallback()
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=BATCHER, fallback=fallback
        )
        handle = service.submit(history, top_k=4, deadline_ms=1.0)
        time.sleep(0.01)
        assert service.flush() == 0  # nothing decoded: served by fallback
        assert handle.result(timeout=1.0) == [0, 1, 2, 3]
        assert handle.degraded and handle.degraded_reason == "deadline"
        assert service.stats.degraded_deadline == 1
        assert service.stats.shed_deadline == 0

    def test_exactly_one_outcome_per_degraded_handle(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=BATCHER, fallback=StubFallback()
        )
        handle = service.submit(history, top_k=3, deadline_ms=1.0)
        time.sleep(0.01)
        service.flush()
        first = handle.result()
        service.flush()  # a later flush must not re-deliver or overwrite
        assert handle.result() == first
        assert service.stats.degraded_deadline == 1

    def test_cluster_front_door_serves_degraded(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        fallback = StubFallback()
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec),
            num_workers=1,
            batcher=BATCHER,
            max_backlog=1,
            fallback=fallback,
        )
        kept = cluster.submit(history, top_k=3)
        degraded = cluster.submit(history, top_k=3)
        assert isinstance(degraded, PendingRecommendation) and degraded.done
        assert degraded.degraded_reason == "queue_full"
        assert degraded.result() == [0, 1, 2]
        assert cluster.stats.degraded == 1
        assert cluster.stats.rejected == 0
        assert cluster.shed_requests == 0
        assert cluster.degraded_requests == 1
        cluster.flush()
        assert len(kept.result()) == 3

    def test_cluster_cold_start_lane(self, tiny_lcrec):
        fallback = StubFallback()
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec), num_workers=2, batcher=BATCHER, fallback=fallback
        )
        handle = cluster.submit([], top_k=5, session_key="user:new")
        assert isinstance(handle, PendingRecommendation) and handle.done
        assert handle.degraded_reason == "cold_start"
        assert handle.result() == [0, 1, 2, 3, 4]
        # The worker answered it without queueing: no decode slot spent.
        assert [s.degraded_cold_start for s in cluster.worker_stats()].count(1) == 1
        assert cluster.stats.degraded == 0 and cluster.degraded_requests == 1
        assert cluster.backlog == 0

    def test_service_and_one_worker_cluster_share_the_cold_start_lane(self, tiny_lcrec):
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=BATCHER, fallback=StubFallback()
        )
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec), num_workers=1, batcher=BATCHER, fallback=StubFallback()
        )
        handles = [client.submit([], top_k=4) for client in (service, cluster)]
        assert [(h.result(), h.degraded_reason) for h in handles] == [
            ([0, 1, 2, 3], "cold_start")
        ] * 2
        assert service.backlog == 0 and cluster.backlog == 0

    def test_retrieval_recommender_is_a_working_fallback(self, tiny_lcrec, tiny_dataset):
        """End-to-end with the shipped fast lane, not a stub."""
        from repro.retrieval import ClusteredKNNConfig, RetrievalRecommender

        retriever = RetrievalRecommender.from_lcrec(
            tiny_lcrec, ClusteredKNNConfig(n_clusters=4, n_probe=2)
        )
        history = list(tiny_dataset.split.test_histories[0])
        cluster = ServingCluster(
            LCRecEngine(tiny_lcrec),
            num_workers=1,
            batcher=BATCHER,
            max_backlog=1,
            fallback=retriever,
        )
        kept = cluster.submit(history, top_k=5)
        degraded = cluster.submit(history, top_k=5)
        assert degraded.degraded
        assert degraded.result() == retriever.recommend(history, 5)
        cluster.flush()
        assert len(kept.result()) == 5

    def test_no_fallback_means_pre_existing_shedding(self, tiny_lcrec, tiny_dataset):
        """fallback=None keeps the typed-rejection behaviour bit-for-bit."""
        history = list(tiny_dataset.split.test_histories[0])
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=BATCHER, queue_depth=1
        )
        service.submit(history, top_k=3)
        shed = service.submit(history, top_k=3)
        with pytest.raises(Overloaded):
            shed.result()
        assert not shed.degraded
        assert service.stats.shed_queue_full == 1
        assert service.stats.degraded_queue_full == 0
        service.flush()
