"""The four workloads: what is served, by which client, under what traffic.

Each workload stresses different layers (``why`` is recorded verbatim in
BENCHMARK.json); for every fast path one workload exercises it and one
bypasses it.  Traffic is a pure function of ``--seed``: which users,
in what order, which ingest texts.  Epoch counts are fixed per second of
``--seconds`` (calibrated on the reference host, see baseline.json), so a
run does the same work wherever it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import fixture
from loadgen import Request
from pinning import start_pinned
from repro.retrieval import HybridRecommender
from repro.serving import (
    LCRecEngine,
    MicroBatcherConfig,
    RecommendationService,
    ServingCluster,
    TIGEREngine,
)

__all__ = ["Served", "Workload", "WORKLOADS"]

SMOKE_EPOCHS = 5


@dataclass
class Served:
    """A client plus the objects the ledger reads counters from."""

    client: object
    services: list  # the RecommendationService behind each decode thread
    cluster: ServingCluster | None = None
    catalog: object | None = None
    decode_threads: tuple = ()  # set by Workload.start
    decode_cpus: tuple[int, ...] = ()


class Workload:
    name: str
    why: str
    clients: int
    quota: int
    epochs_per_second: float
    # Frozen latency limit: 2 x the p95 recorded when the ledger was defined.
    slo_nms: float

    def epochs(self, seconds: float, smoke: bool) -> int:
        return SMOKE_EPOCHS if smoke else max(SMOKE_EPOCHS, round(self.epochs_per_second * seconds))

    def build_model(self, dataset):
        return fixture.build_lcrec(dataset)

    def open(self, model) -> Served:
        """A fresh, not yet started client over ``model``."""
        raise NotImplementedError

    def start(self, model) -> Served:
        served = self.open(model)
        threads, cpus = start_pinned(served.client)
        served.decode_threads, served.decode_cpus = tuple(threads), tuple(cpus)
        return served

    def traffic(self, dataset, rng: np.random.Generator, epochs: int) -> list[list[Request]]:
        """Unique histories cycling the test pool in a seeded order."""
        pool = dataset.split.test_histories
        order = rng.permutation(len(pool))
        return [
            [
                Request(tuple(pool[order[(epoch * self.quota + i) % len(pool)]]))
                for i in range(self.quota)
            ]
            for epoch in range(epochs)
        ]

    def ingests(self, dataset, rng: np.random.Generator, epochs: int) -> dict[int, list[str]]:
        return {}

    def oracle(self, model, served: Served, histories: list[list[int]]) -> list[list[int]]:
        """Cache-less, single-thread, one request at a time, same weights."""
        engine = LCRecEngine(model, prefix_cache=None)
        return [engine.recommend_many([h], top_k=fixture.TOP_K)[0] for h in histories]

    def num_items(self, model, served: Served) -> int:
        return model.trie.num_items


def _continuous_service(engine, **kwargs) -> RecommendationService:
    return RecommendationService(
        engine, batcher=MicroBatcherConfig(max_batch_size=8), mode="continuous", **kwargs
    )


class SteadyClosed(Workload):
    name = "steady_closed"
    why = (
        "continuous LCRec service, unique histories: the trie-constrained decode does nearly "
        "all the work; prefix cache hits only the template head; router, retrieval, catalog unused"
    )
    clients, quota = 12, 36  # window 12 over width 8 breaks lockstep, so joins fire
    epochs_per_second = 2.45
    slo_nms = 370.0

    def open(self, model) -> Served:
        service = _continuous_service(LCRecEngine(model))
        return Served(service, [service])


class SessionCluster(Workload):
    name = "session_cluster"
    why = (
        "2-worker deadline-batched cluster, growing and refreshed sessions: prefill is mostly "
        "skipped, so router, batch planning, flush loop and prefix cache carry the cost"
    )
    clients = quota = 24  # barrier wave: one visit from each session of the active half
    epochs_per_second = 5.55
    slo_nms = 340.0
    sessions = 48
    visits_per_user = 12
    max_history = 8  # AlignmentTaskConfig.max_history: longer histories truncate at the front

    def open(self, model) -> Served:
        cluster = ServingCluster(
            LCRecEngine(model),
            num_workers=2,
            mode="deadline",
            batcher=MicroBatcherConfig(max_batch_size=8),
        )
        return Served(cluster, cluster.workers, cluster=cluster)

    def traffic(self, dataset, rng, epochs):
        """Session ``s`` visits every other epoch; a visit extends or repeats the last.

        Visit ``v`` of a user sends ``history[:2 + turn]``; every third
        visit is a verbatim refresh (``turn`` does not advance), and a
        new user takes over the session key every ``visits_per_user``
        visits.  Growth stays within ``max_history`` so it extends the
        prompt instead of shifting it.
        """
        pool = [h for h in dataset.split.test_histories if len(h) >= self.max_history]
        users = rng.permutation(len(pool))
        half = self.sessions // 2
        plan = []
        for epoch in range(epochs):
            visit = epoch // 2
            generation, step = divmod(visit, self.visits_per_user)
            turn = step - (step + 1) // 3
            length = min(2 + turn, self.max_history)
            slots = (epoch % 2) * half + rng.permutation(half)
            plan.append(
                [
                    Request(
                        tuple(pool[users[(generation * self.sessions + s) % len(pool)]][:length]),
                        session_key=f"session:{s}",
                    )
                    for s in slots
                ]
            )
        return plan


class ChurnHybrid(Workload):
    name = "churn_hybrid"
    why = (
        "continuous LCRec service with the hybrid retrieval lane and live-catalog ingests beside "
        "reads: only here do catalog, online indexer, subtries, KNN and cache sync run, "
        "mutating what the decode reads"
    )
    clients, quota = 12, 36
    epochs_per_second = 1.9
    slo_nms = 410.0
    ingests_per_round = 4
    title_words = 6

    def open(self, model) -> Served:
        catalog = model.live_catalog()
        engine = LCRecEngine(model)
        engine.attach_catalog(catalog)
        hybrid = HybridRecommender(engine, catalog, num_candidates=32)
        service = _continuous_service(engine, hybrid=hybrid)
        return Served(service, [service], catalog=catalog)

    def ingests(self, dataset, rng, epochs):
        """Four new items before every second epoch: titles of catalog words."""
        words = sorted({word for text in dataset.catalog.texts() for word in text.split()})
        return {
            epoch: [
                " ".join(rng.choice(words, size=self.title_words))
                for _ in range(self.ingests_per_round)
            ]
            for epoch in range(0, epochs, 2)
        }

    def oracle(self, model, served, histories):
        """The library hybrid path at the catalog version the run ended on."""
        engine = LCRecEngine(model, prefix_cache=None)
        engine.attach_catalog(served.catalog)
        hybrid = HybridRecommender(engine, served.catalog, num_candidates=32)
        return [hybrid.recommend(h, top_k=fixture.TOP_K) for h in histories]

    def num_items(self, model, served):
        return served.catalog.num_items


class TigerBatch(Workload):
    name = "tiger_batch"
    why = (
        "deadline-batched TIGER service: the second, private beam stepper and the encoder-decoder "
        "scorer; bypasses llm.generation, prefix cache and joins, so LCRec-only changes must not move it"
    )
    clients = quota = 48  # barrier wave of three full batches
    epochs_per_second = 6.67
    slo_nms = 280.0

    def build_model(self, dataset):
        return fixture.build_tiger(dataset)

    def open(self, model) -> Served:
        service = RecommendationService(
            TIGEREngine(model), batcher=MicroBatcherConfig(max_batch_size=16), mode="deadline"
        )
        return Served(service, [service])

    def oracle(self, model, served, histories):
        return [model.recommend(list(h), top_k=fixture.TOP_K) for h in histories]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SteadyClosed(), SessionCluster(), ChurnHybrid(), TigerBatch())
}
