"""Multi-worker cluster serving under session/refresh traffic and overload.

The :class:`repro.serving.ServingCluster` claims three things on top of a
single ``RecommendationService``; this benchmark measures all three on one
open-loop Poisson workload (``SESSIONS`` users, each refreshing the same
prompt ``REFRESH`` times — the traffic shape the affinity router exists
for):

1. **Routing matters.**  Rendezvous affinity lands refresh traffic on
   the worker whose prefix K/V cache already holds that session's
   prompt, so the cache reuses *long per-session* prefixes instead of
   just the short template head shared by everyone.  The aggregate
   ``token_hit_rate`` and ``affinity_hit_rate`` quantify it (the
   comparable record is the ledger's ``session_cluster`` workload).
2. **Scale-out, where the hardware allows it.**  Workers are decode
   threads; numpy's BLAS kernels drop the GIL, so on a multicore host
   the fleet's aggregate req/s scales with workers.  On a single-core
   host (CI smoke) the sweep still runs — the scaling bar is asserted
   only where parallel speedup is physically possible, and the skip is
   logged loudly rather than silently passed.
3. **Graceful degradation.**  Past the saturation knee the cluster sheds
   (typed ``Overloaded``: backlog bounds at the front door, deadline
   expiry at the workers) instead of queueing unboundedly — so the p95
   of *served* requests stays bounded while the shed rate, not the
   latency, absorbs the overload.

Correctness is asserted, not assumed: a 1-worker cluster must return
rankings bit-identical to a plain ``RecommendationService`` over the same
engine (for both the LCRec and TIGER fleets), and every submitted handle
must resolve — delivered or typed-shed, never lost.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.bench import bench_scale, report, report_json, scaled_dataset
from repro.bench.runners import build_lcrec_model
from repro.baselines import TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set
from repro.llm import PrefixKVCache
from repro.serving import (
    LCRecEngine,
    MicroBatcherConfig,
    Overloaded,
    RecommendationService,
    ServingCluster,
    TIGEREngine,
)

SESSIONS = 16
REFRESH = 5  # each session re-sends its prompt this many times
BATCH_WIDTH = 4
MEAN_GAP_MS = 6.0  # moderate Poisson load (~167 req/s offered)
FLUSH_MS = 10.0  # worker deadline-flush cadence
DEADLINE_MS = 150.0  # per-request shed budget in the overload segment
MAX_BACKLOG = 12  # per-worker admission bound in the overload segment
CACHE_ENTRIES = 32  # per-worker prefix K/V capacity
TOP_K = 10
SEED = 11


def _session_traffic(dataset, sessions, refresh):
    """(session_key, history) pairs: ``refresh`` interleaved rounds."""
    pool = dataset.split.test_histories
    per_session = [list(pool[s % len(pool)]) for s in range(sessions)]
    return [
        (f"user:{s}", per_session[s])
        for _ in range(refresh)
        for s in range(sessions)
    ]


def run_fleet(
    engine_for,
    traffic,
    gaps,
    num_workers,
    deadline_ms=None,
    max_backlog=None,
    burst=False,
):
    """Open-loop Poisson replay through a fleet; per-request latencies.

    Returns served/shed splits: under admission control some handles
    legitimately resolve to ``Overloaded``, and the point of the bench is
    that those are the *only* two outcomes — nothing hangs or is lost.

    ``burst=True`` models the past-the-knee overload segment: the whole
    workload is submitted back-to-back (no arrival gaps, no per-request
    waiter thread competing with the decode threads for the GIL), so the
    instantaneous backlog deterministically exceeds the fleet's admission
    slots whatever the host's speed.  Waiters then attach after the
    burst; a request that completed mid-burst is timestamped at
    observation, which can only *overstate* the served latencies the
    bounded-p95 assertion is about.
    """
    cluster = ServingCluster(
        engine_for,
        num_workers=num_workers,
        batcher=MicroBatcherConfig(max_batch_size=BATCH_WIDTH),
        deadline_ms=FLUSH_MS,
        max_backlog=max_backlog,
    )
    outcomes = [None] * len(traffic)  # "shed" | ranking
    latencies = [0.0] * len(traffic)
    completed = [0.0] * len(traffic)

    def waiter(index, handle, submitted_at):
        try:
            outcomes[index] = handle.result(timeout=180.0)
        except Overloaded:
            outcomes[index] = "shed"
        completed[index] = time.perf_counter()
        latencies[index] = completed[index] - submitted_at

    threads = []
    with cluster:
        start = time.perf_counter()
        pending = []
        for index, ((session_key, history), gap) in enumerate(zip(traffic, gaps)):
            if not burst:
                time.sleep(gap)
            submitted_at = time.perf_counter()
            handle = cluster.submit(
                history, top_k=TOP_K, session_key=session_key, deadline_ms=deadline_ms
            )
            if burst:
                pending.append((index, handle, submitted_at))
            else:
                thread = threading.Thread(
                    target=waiter, args=(index, handle, submitted_at)
                )
                thread.start()
                threads.append(thread)
        for index, handle, submitted_at in pending:
            thread = threading.Thread(target=waiter, args=(index, handle, submitted_at))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=240.0)
    assert all(outcome is not None for outcome in outcomes), "requests lost"
    served = [
        latency for outcome, latency in zip(outcomes, latencies) if outcome != "shed"
    ]
    elapsed = max(completed) - start
    caches = [w.prefix_cache for w in cluster.workers if w.prefix_cache is not None]
    prompt_tokens = sum(cache.stats.prompt_tokens for cache in caches)
    reused_tokens = sum(cache.stats.reused_tokens for cache in caches)
    return {
        "workers": num_workers,
        "rankings": outcomes,
        "served": len(served),
        "shed": len(traffic) - len(served),
        "requests_per_second": len(served) / elapsed,
        "p50_ms": 1000 * float(np.percentile(served, 50)) if served else float("nan"),
        "p95_ms": 1000 * float(np.percentile(served, 95)) if served else float("nan"),
        "affinity_hit_rate": cluster.stats.affinity_hit_rate,
        "token_hit_rate": reused_tokens / prompt_tokens if prompt_tokens else 0.0,
        "shed_requests": cluster.shed_requests,
    }


def _lcrec_engine_factory(model):
    """Fresh engine per worker: a bounded private prefix K/V cache each."""
    return lambda: LCRecEngine(
        model, prefix_cache=PrefixKVCache(max_entries=CACHE_ENTRIES)
    )


def _assert_parity(engine_for, traffic, reference):
    """1-worker cluster == plain service, ranking for ranking."""
    gaps = [0.0] * len(traffic)
    result = run_fleet(engine_for, traffic, gaps, num_workers=1)
    assert result["shed"] == 0
    assert result["rankings"] == reference, "1-worker cluster diverged from service"


def _build_tiger(dataset, scale):
    index_set = build_random_index_set(
        dataset.num_items, 3, 8, np.random.default_rng(SEED)
    )
    model = TIGER(
        index_set, TIGERConfig(dim=48, epochs=scale.epochs(6, minimum=2), seed=SEED)
    )
    model.fit(dataset)
    return model


def run_cluster_serving_table():
    scale = bench_scale()
    cores = os.cpu_count() or 1
    dataset = scaled_dataset("instruments")
    model = build_lcrec_model(dataset, tasks=("seq",))
    traffic = _session_traffic(dataset, SESSIONS, REFRESH)
    rng = np.random.default_rng(SEED)
    gaps = rng.exponential(MEAN_GAP_MS / 1000.0, len(traffic))
    engine_for = _lcrec_engine_factory(model)

    # Parity first: placement must never change the math.
    reference = RecommendationService(
        LCRecEngine(model, prefix_cache=False),
        batcher=MicroBatcherConfig(max_batch_size=BATCH_WIDTH),
    ).recommend_many([history for _, history in traffic], top_k=TOP_K)
    _assert_parity(engine_for, traffic, reference)

    run_fleet(engine_for, traffic[:BATCH_WIDTH], gaps[:BATCH_WIDTH], 1)  # warm
    sweep = [run_fleet(engine_for, traffic, gaps, workers) for workers in (1, 2, 4)]
    for result in sweep:
        assert result["rankings"] == reference, "fleet size changed rankings"

    # Overload segment: ~10x arrival rate, bounded backlogs, shed budgets.
    overload = run_fleet(
        engine_for,
        traffic,
        gaps,
        4,
        deadline_ms=DEADLINE_MS,
        max_backlog=MAX_BACKLOG,
        burst=True,
    )

    # TIGER fleet: same client surface, second engine family.
    tiger = _build_tiger(dataset, scale)
    tiger_reference = RecommendationService(
        TIGEREngine(tiger), batcher=MicroBatcherConfig(max_batch_size=BATCH_WIDTH)
    ).recommend_many([history for _, history in traffic], top_k=TOP_K)
    _assert_parity(TIGEREngine(tiger), traffic, tiger_reference)
    tiger_fleet = run_fleet(TIGEREngine(tiger), traffic, gaps, 4)
    assert tiger_fleet["rankings"] == tiger_reference, "TIGER fleet changed rankings"

    one, four = sweep[0], sweep[-1]
    scaling = four["requests_per_second"] / one["requests_per_second"]
    rows = [
        f"{'config':<26} {'req/s':>8} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'tok hit':>8} {'shed':>6}",
    ]
    named = [
        (f"affinity x{r['workers']}", r) for r in sweep
    ] + [("overload x4", overload), ("TIGER x4", tiger_fleet)]
    for name, r in named:
        rows.append(
            f"{name:<26} {r['requests_per_second']:>8.1f} {r['p50_ms']:>8.1f} "
            f"{r['p95_ms']:>8.1f} {r['token_hit_rate']:>8.2f} {r['shed']:>6d}"
        )
    rows += [
        "",
        f"workload: {SESSIONS} sessions x {REFRESH} refreshes, Poisson mean gap "
        f"{MEAN_GAP_MS:.1f} ms (overload: back-to-back burst), "
        f"width {BATCH_WIDTH}, {CACHE_ENTRIES}-entry K/V per worker, {cores} cores",
        f"4-vs-1 worker scaling {scaling:.2f}x; affinity hit rate "
        f"{four['affinity_hit_rate']:.2f} at 4 workers",
        f"overload: {overload['shed']}/{len(traffic)} shed "
        f"(front door + deadline), served p95 {overload['p95_ms']:.1f} ms vs "
        f"{four['p95_ms']:.1f} ms at moderate load",
    ]
    if cores < 4:
        rows.append(
            f"NOTE: {cores}-core host — the >=1.5x 4-worker scaling bar needs "
            "parallel decode and is not asserted here"
        )
    report("cluster_serving", "\n".join(rows))
    report_json(
        "cluster_serving",
        config={
            "sessions": SESSIONS, "refresh": REFRESH, "batch_width": BATCH_WIDTH,
            "mean_gap_ms": MEAN_GAP_MS, "overload": "burst",
            "deadline_ms": DEADLINE_MS, "max_backlog": MAX_BACKLOG,
            "cache_entries": CACHE_ENTRIES, "top_k": TOP_K, "cores": cores,
            "scale": scale.name,
        },
        results=[
            {
                "name": name,
                "requests_per_second": r["requests_per_second"],
                "p50_ms": r["p50_ms"],
                "p95_ms": r["p95_ms"],
                "served": r["served"],
                "shed": r["shed"],
                "affinity_hit_rate": r["affinity_hit_rate"],
                "token_hit_rate": r["token_hit_rate"],
            }
            for name, r in named
        ],
    )
    return {
        "sweep": sweep,
        "overload": overload,
        "tiger": tiger_fleet,
        "cores": cores,
    }


def test_cluster_serving(benchmark):
    results = benchmark.pedantic(run_cluster_serving_table, rounds=1, iterations=1)
    sweep, overload, cores = results["sweep"], results["overload"], results["cores"]
    four = sweep[-1]
    strict = bench_scale().name != "tiny"

    # Affinity keeps keyed traffic on its rendezvous worker: better than
    # the 1/N a key-blind placement would manage.
    assert four["affinity_hit_rate"] > 1.0 / four["workers"], (
        f"affinity hit rate {four['affinity_hit_rate']:.2f} no better than chance"
    )

    # Overload degrades by shedding, never by an unbounded latency cliff:
    # at ~10x the moderate arrival rate, load must actually shed and the
    # p95 of *served* requests must stay within a small factor of the
    # moderate-load p95.
    assert overload["shed"] > 0, "overload segment shed nothing"
    assert overload["served"] > 0, "overload segment served nothing"
    if strict:
        assert overload["p95_ms"] <= 5.0 * four["p95_ms"] + DEADLINE_MS, (
            f"served p95 {overload['p95_ms']:.1f} ms cliffed past the knee "
            f"(moderate-load p95 {four['p95_ms']:.1f} ms)"
        )

    # Fleet scaling needs real parallelism: decode threads only overlap
    # where BLAS drops the GIL across multiple cores.
    if strict and cores >= 4:
        scaling = four["requests_per_second"] / sweep[0]["requests_per_second"]
        assert scaling >= 1.5, (
            f"4-worker fleet only {scaling:.2f}x a single worker on "
            f"{cores} cores"
        )
