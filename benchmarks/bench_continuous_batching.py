"""Continuous batching vs deadline-flush serving under Poisson arrivals.

The deadline-batched loop (PR 2) decodes in closed batches: a request
arriving one tick after a flush waits for the whole in-flight batch to
finish every trie level — up to a full latency budget of queueing plus a
whole batch decode — before its own decode starts.  Continuous batching
admits it at the next *trie-level boundary* instead (milliseconds away)
and delivers every request the moment its own rows finish.

This benchmark replays one interactive open-loop workload — requests
arriving at Poisson times, each submitter blocking only on its own result
— through the same model and micro-batch width in both modes, and
measures what the ROADMAP north-star actually cares about: requests/sec
and p50/p95 end-to-end latency (submit → ranked list in hand).

Correctness is asserted, not assumed: both modes must return identical
rankings, spot-checked against the single-request reference loop
(``beam_search_items_single``) — continuous admission is a scheduling
change, never an approximation.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.bench import bench_scale, report, report_json, scaled_dataset
from repro.bench.runners import build_lcrec_model
from repro.llm import beam_search_items_single, ranked_item_ids
from repro.serving import LCRecEngine, MicroBatcherConfig, RecommendationService

BATCH_WIDTH = 8  # max_batch_size / joined-width cap, both modes
NUM_REQUESTS = 48
MEAN_GAP_MS = 12.0  # Poisson arrivals: ~83 req/s offered load
DEADLINE_MS = 60.0  # deadline-flush latency budget
TOP_K = 10
SEED = 7


def _histories(dataset, count):
    pool = dataset.split.test_histories
    return [list(pool[i % len(pool)]) for i in range(count)]


def run_mode(model, histories, gaps, mode):
    """Open-loop replay: Poisson submits, per-request completion latency."""
    service = RecommendationService(
        LCRecEngine(model),
        batcher=MicroBatcherConfig(max_batch_size=BATCH_WIDTH),
        deadline_ms=DEADLINE_MS,
        mode=mode,
    )
    latencies = [0.0] * len(histories)
    completed = [0.0] * len(histories)
    rankings: list[list[int] | None] = [None] * len(histories)

    def waiter(index, handle, submitted_at):
        rankings[index] = handle.result(timeout=120.0)
        completed[index] = time.perf_counter()
        latencies[index] = completed[index] - submitted_at

    threads = []
    with service:
        start = time.perf_counter()
        # Open loop: arrivals follow an absolute schedule, so a submitter
        # held up by the decode thread (thread start, the interpreter lock)
        # catches up instead of pushing every later arrival back, and
        # latency counts from when a request was *due*.
        for index, (history, due) in enumerate(zip(histories, start + np.cumsum(gaps))):
            time.sleep(max(0.0, due - time.perf_counter()))
            handle = service.submit(history, top_k=TOP_K)
            thread = threading.Thread(target=waiter, args=(index, handle, due))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=180)
    assert all(r is not None for r in rankings), f"{mode}: requests lost"
    # Serving span: first submit until the last ranked list was in hand.
    elapsed = max(completed) - start
    return rankings, np.asarray(latencies), elapsed, service


def run_continuous_batching_table():
    dataset = scaled_dataset("instruments")
    model = build_lcrec_model(dataset, tasks=("seq",))
    histories = _histories(dataset, NUM_REQUESTS)
    gaps = np.random.default_rng(SEED).exponential(
        MEAN_GAP_MS / 1000.0, NUM_REQUESTS
    )

    run_mode(model, histories[:BATCH_WIDTH], gaps[:BATCH_WIDTH], "deadline")  # warm
    results = {}
    for mode in ("deadline", "continuous"):
        rankings, latencies, elapsed, service = run_mode(
            model, histories, gaps, mode
        )
        results[mode] = {
            "rankings": rankings,
            "p50": float(np.percentile(latencies, 50)),
            "p95": float(np.percentile(latencies, 95)),
            "rps": NUM_REQUESTS / elapsed,
            "stats": service.stats,
        }

    # Scheduling must never change the math: identical rankings across
    # modes, spot-checked against the single-request reference loop.
    assert results["continuous"]["rankings"] == results["deadline"]["rankings"], (
        "continuous admission changed rankings"
    )
    beam = max(model.config.beam_size, TOP_K)
    for history, ranked in list(zip(histories, results["continuous"]["rankings"]))[:3]:
        prompt = model.encode_instruction(model.seq_instruction(history))
        reference = beam_search_items_single(model.lm, prompt, model.trie, beam_size=beam)
        assert ranked == ranked_item_ids(reference, TOP_K), "parity with reference broke"

    deadline, continuous = results["deadline"], results["continuous"]
    stats = continuous["stats"]
    rows = [
        f"{'config':<22} {'req/s':>8} {'p50 ms':>9} {'p95 ms':>9}",
        f"{'deadline-flush (PR 2)':<22} {deadline['rps']:>8.2f} "
        f"{1000 * deadline['p50']:>9.1f} {1000 * deadline['p95']:>9.1f}",
        f"{'continuous':<22} {continuous['rps']:>8.2f} "
        f"{1000 * continuous['p50']:>9.1f} {1000 * continuous['p95']:>9.1f}",
        "",
        f"workload: {NUM_REQUESTS} requests, Poisson arrivals "
        f"(mean gap {MEAN_GAP_MS:.0f} ms), width cap {BATCH_WIDTH}, "
        f"deadline {DEADLINE_MS:.0f} ms",
        f"continuous: {stats.admissions} admissions "
        f"({stats.joins} joined a live decode), "
        f"p95 {deadline['p95'] / max(continuous['p95'], 1e-9):.2f}x better, "
        f"p50 {deadline['p50'] / max(continuous['p50'], 1e-9):.2f}x better",
    ]
    report("continuous_batching", "\n".join(rows))
    report_json(
        "continuous_batching",
        config={"num_requests": NUM_REQUESTS, "mean_gap_ms": MEAN_GAP_MS,
                "width_cap": BATCH_WIDTH, "deadline_ms": DEADLINE_MS,
                "top_k": TOP_K, "scale": bench_scale().name},
        results=[
            {"name": mode, "requests_per_second": entry["rps"],
             "p50_ms": 1000 * entry["p50"], "p95_ms": 1000 * entry["p95"],
             "stage_seconds": entry["stats"].stage_seconds()}
            for mode, entry in results.items()
        ],
    )
    return results


def test_continuous_batching_latency(benchmark):
    results = benchmark.pedantic(run_continuous_batching_table, rounds=1,
                                 iterations=1)
    deadline, continuous = results["deadline"], results["continuous"]
    # Headline acceptance: continuous admission beats deadline flushing on
    # p95 latency at equal or better throughput under Poisson arrivals.
    assert continuous["p95"] < deadline["p95"], (
        f"continuous p95 {1000 * continuous['p95']:.1f} ms not better than "
        f"deadline p95 {1000 * deadline['p95']:.1f} ms"
    )
    assert continuous["rps"] >= 0.95 * deadline["rps"], (
        f"continuous req/s {continuous['rps']:.2f} fell behind "
        f"deadline req/s {deadline['rps']:.2f}"
    )
