"""Turns a phase's records and spans into the named metrics of the ledger.

End-to-end metrics come from a phase run with nothing installed;
per-layer metrics from a traced phase plus the counters the serving
objects keep.  Every duration is in normalised milliseconds (``nms``):
wall time scaled by the probes bracketing its epoch.  README.md has the
definition of each name and the end-to-end metric it is expected to move.
"""

from __future__ import annotations

import resource
import statistics
import threading
from collections import defaultdict

import fixture
from loadgen import Phase, RequestRecord
from tracing import Recorder

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer"]

END_TO_END = {
    "setup_s": "s",
    "throughput_nrps": "nrps",
    "latency_p50_nms": "nms",
    "latency_p95_nms": "nms",
    "slo_met_share": "share",
    "succeeded_share": "share",
    "peak_rss_mb": "MB",
}

# name -> unit; a name absent from a workload's run reports 0.
PER_LAYER = {
    "serving.client.ingest_p50_nms": "nms",
    "serving.service.submit_nms": "nms",
    "serving.service.queue_wait_p50_nms": "nms",
    "serving.service.queue_wait_p95_nms": "nms",
    "serving.service.delivery_p50_nms": "nms",
    "serving.service.loop_self_nms": "nms",
    "serving.service.busy_cpu_nms": "nms",
    "serving.service.mean_batch_size": "count",
    "serving.service.mean_padding_fraction": "share",
    "serving.service.deadline_flush_share": "share",
    "serving.service.joins_per_admission": "count",
    "serving.queue.idle_nms": "nms",
    "serving.batcher.plan_nms": "nms",
    "serving.continuous.admit_self_nms": "nms",
    "serving.continuous.step_self_nms": "nms",
    "serving.continuous.mean_live_width": "count",
    "serving.engine.prefill_nms": "nms",
    "serving.engine.step_nms": "nms",
    "serving.engine.join_nms": "nms",
    "serving.engine.retire_nms": "nms",
    "serving.engine.finalize_nms": "nms",
    "serving.engine.steps_per_req": "count",
    "serving.engine.forwards_per_req": "count",
    "serving.engine.rows_per_step": "count",
    "llm.generation.prefill_self_nms": "nms",
    "llm.generation.step_self_nms": "nms",
    "llm.model.forward_nms": "nms",
    "llm.model.head_gather_nms": "nms",
    "llm.model.forward_calls_per_req": "count",
    "llm.model.prompt_tokens_forwarded_per_req": "count",
    "llm.model.gemm_mflop_per_req": "Mflop",
    "llm.prefix_cache.token_hit_rate": "share",
    "llm.prefix_cache.match_nms": "nms",
    "llm.prefix_cache.probe_nms": "nms",
    "llm.prefix_cache.insert_nms": "nms",
    "llm.prefix_cache.evictions_per_req": "count",
    "llm.prefix_cache.invalidated_per_ingest": "count",
    "quantization.trie.mask_nms": "nms",
    "quantization.trie.subtrie_nms": "nms",
    "quantization.trie.with_item_nms": "nms",
    "serving.router.route_nms": "nms",
    "serving.cluster.affinity_hit_rate": "share",
    "serving.cluster.spilled_share": "share",
    "serving.cluster.worker_imbalance": "ratio",
    "retrieval.hybrid.candidates_nms": "nms",
    "retrieval.knn.search_nms": "nms",
    "retrieval.hybrid.narrowed_share": "share",
    "core.catalog.ingest_nms": "nms",
    "core.catalog.embed_nms": "nms",
    "core.indexer.encode_nms": "nms",
    "retrieval.knn.with_vector_nms": "nms",
    "baselines.tiger.encode_nms": "nms",
    "baselines.tiger.decode_hidden_nms": "nms",
    "baselines.tiger.head_gather_nms": "nms",
    "trace.overhead_share": "share",
    "trace.ledger_coverage_share": "share",
    "host.probe_p50_ms": "ms",
    "host.probe_iqr_share": "share",
    "host.raw_throughput_rps": "1/s",
    "host.raw_latency_p50_ms": "ms",
}

# metric -> span name.  Inclusive time of the outermost span of that name,
# per ingest / per request; then self time per request.  (Leaf spans read
# the same either way.)
_PER_INGEST = {
    "core.catalog.ingest_nms": "core.catalog.ingest",
    "core.catalog.embed_nms": "core.catalog.embed",
    "core.indexer.encode_nms": "core.indexer.encode",
    "retrieval.knn.with_vector_nms": "retrieval.knn.with_vector",
    "quantization.trie.with_item_nms": "quantization.trie.with_item",
}
_INCLUSIVE_PER_REQUEST = {
    "serving.service.submit_nms": "serving.service.submit",
    "serving.batcher.plan_nms": "serving.batcher.plan",
    "serving.engine.prefill_nms": "serving.engine.prefill",
    "serving.engine.step_nms": "serving.engine.step",
    "serving.engine.join_nms": "serving.engine.join",
    "serving.engine.retire_nms": "serving.engine.retire",
    "serving.engine.finalize_nms": "serving.engine.finalize",
    "retrieval.hybrid.candidates_nms": "retrieval.hybrid.candidates",
    "quantization.trie.subtrie_nms": "quantization.trie.subtrie",
}
_SELF_PER_REQUEST = {
    "serving.queue.idle_nms": "serving.queue.idle",
    "serving.continuous.admit_self_nms": "serving.continuous.admit",
    "serving.continuous.step_self_nms": "serving.continuous.step",
    "llm.generation.prefill_self_nms": "llm.generation.prefill",
    "llm.generation.step_self_nms": "llm.generation.step",
    "llm.model.forward_nms": "llm.model.forward",
    "llm.model.head_gather_nms": "llm.model.head_gather",
    "llm.prefix_cache.match_nms": "llm.prefix_cache.match",
    "llm.prefix_cache.probe_nms": "llm.prefix_cache.probe",
    "llm.prefix_cache.insert_nms": "llm.prefix_cache.insert",
    "quantization.trie.mask_nms": "quantization.trie.mask",
    "serving.router.route_nms": "serving.router.route",
    "retrieval.knn.search_nms": "retrieval.knn.search",
    "baselines.tiger.encode_nms": "baselines.tiger.encode",
    "baselines.tiger.decode_hidden_nms": "baselines.tiger.decode_hidden",
    "baselines.tiger.head_gather_nms": "baselines.tiger.head_gather",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(rank) - 1]


def valid_ranking(ranking, num_items: int) -> bool:
    return (
        ranking is not None
        and len(ranking) == fixture.TOP_K
        and len(set(ranking)) == fixture.TOP_K
        and all(0 <= item < num_items for item in ranking)
    )


def succeeded(record: RequestRecord, num_items: int) -> bool:
    """A full, valid ranking that came out of the decoder."""
    return record.error is None and not record.degraded and valid_ranking(record.ranking, num_items)


def end_to_end(
    quota: int,
    slo_nms: float,
    phase: Phase,
    setup_s: float,
    num_items: int,
    mismatched: set[int],
) -> tuple[dict[str, float], int, int]:
    """``(metrics, attempted, failed)`` of one untraced phase.

    ``mismatched`` holds ``id()``s of records whose ranking the
    correctness gate rejected; they count as failed operations.
    """
    latencies = [phase.latency_nms(record) for record in phase.requests]
    good = [
        succeeded(record, num_items) and id(record) not in mismatched
        for record in phase.requests
    ]
    ingested = sum(ingest.item_id is not None for ingest in phase.ingests)
    attempted = len(phase.requests) + len(phase.ingests)
    ok = sum(good) + ingested
    metrics = {
        "setup_s": setup_s,
        "throughput_nrps": quota * 1000.0 / statistics.median(e.nms for e in phase.epochs),
        # Pooled over every request of the phase, each scaled by its own
        # epoch's probes (the sample count is printed with the result).
        "latency_p50_nms": percentile(latencies, 50),
        "latency_p95_nms": percentile(latencies, 95),
        "slo_met_share": sum(
            fine and latency <= slo_nms for fine, latency in zip(good, latencies)
        ) / len(latencies),
        "succeeded_share": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, attempted, attempted - ok


def quota_of(phase: Phase) -> float:
    return len(phase.requests) / len(phase.epochs)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(served, untraced: Phase, traced: Phase, recorder: Recorder) -> dict[str, float]:
    """Every PER_LAYER metric for one workload run."""
    scale = {epoch.index: epoch.scale for epoch in traced.epochs}
    spans = [span for span in recorder.spans if span.epoch in scale]
    by_id = {span.id: span for span in spans}
    self_time = recorder.self_times()
    requests = len(traced.requests)
    ingests = len(traced.ingests)

    self_nms: dict[str, float] = defaultdict(float)
    inclusive_nms: dict[str, float] = defaultdict(float)
    for span in spans:
        self_nms[span.name] += self_time[span.id] * scale[span.epoch]
        parent = by_id.get(span.parent)
        if parent is None or parent.name != span.name:  # outermost of its name
            inclusive_nms[span.name] += span.duration * scale[span.epoch]

    out = dict.fromkeys(PER_LAYER, 0.0)
    for metric, name in _SELF_PER_REQUEST.items():
        out[metric] = self_nms[name] / requests
    for metric, name in _INCLUSIVE_PER_REQUEST.items():
        out[metric] = inclusive_nms[name] / requests
    for metric, name in _PER_INGEST.items():
        out[metric] = _ratio(inclusive_nms[name], ingests)

    # Per-request waits: submit return -> admitting prefill; finalize -> observed.
    admitted: dict[int, float] = {}
    finalized: dict[int, float] = {}
    for span in spans:
        if span.name == "serving.engine.prefill":
            for request_id in span.attrs["requests"]:
                admitted[request_id] = min(span.start, admitted.get(request_id, span.start))
        elif span.name == "serving.engine.finalize":
            for request_id in span.attrs["requests"]:
                finalized[request_id] = max(span.end, finalized.get(request_id, span.end))
    waits, deliveries = [], []
    for record in traced.requests:
        factor = scale[record.epoch]
        if record.request_id in admitted:
            waits.append((admitted[record.request_id] - record.submit_end) * factor)
        if record.request_id in finalized:
            deliveries.append((record.observed - finalized[record.request_id]) * factor)
    if waits:
        out["serving.service.queue_wait_p50_nms"] = percentile(waits, 50)
        out["serving.service.queue_wait_p95_nms"] = percentile(waits, 95)
    if deliveries:
        out["serving.service.delivery_p50_nms"] = percentile(deliveries, 50)

    # Decode threads: everything but the generator.  What no top-level
    # span covers inside an epoch is the service loop's own time.
    generator = threading.get_ident()
    windows = {epoch.index: (epoch.start, epoch.end) for epoch in traced.epochs}
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.thread != generator and span.parent not in by_id:
            start, end = windows[span.epoch]
            covered[(span.thread, span.epoch)] += max(0.0, min(span.end, end) - max(span.start, start))
    threads = {thread for thread, _ in covered}
    loop_nms = total = accounted = 0.0
    for epoch in traced.epochs:
        for thread in threads:
            duration = epoch.end - epoch.start
            total += duration
            accounted += min(duration, covered[(thread, epoch.index)])
            loop_nms += max(0.0, duration - covered[(thread, epoch.index)]) * epoch.scale
    out["serving.service.loop_self_nms"] = loop_nms / requests
    out["trace.ledger_coverage_share"] = _ratio(accounted, total)

    # Counts kept on spans.
    steps = [span for span in spans if span.name == "serving.engine.step"]
    forwards = sum(
        span.attrs["forwards"]
        for span in spans
        if span.name in ("serving.engine.prefill", "serving.engine.step", "serving.engine.join")
    )
    out["serving.engine.steps_per_req"] = len(steps) / requests
    out["serving.engine.forwards_per_req"] = forwards / requests
    if steps:
        out["serving.engine.rows_per_step"] = statistics.fmean(s.attrs["rows"] for s in steps)
    live = [
        s.attrs["rows"] for s in steps
        if s.parent in by_id and by_id[s.parent].name == "serving.continuous.step"
    ]
    if live:
        out["serving.continuous.mean_live_width"] = statistics.fmean(live)
    body = [span for span in spans if span.name == "llm.model.forward"]
    gathers = [span for span in spans if span.name == "llm.model.head_gather"]
    out["llm.model.forward_calls_per_req"] = len(body) / requests
    out["llm.model.prompt_tokens_forwarded_per_req"] = sum(
        span.attrs["tokens"]
        for span in body
        if span.parent in by_id and by_id[span.parent].name == "llm.generation.prefill"
    ) / requests
    out["llm.model.gemm_mflop_per_req"] = (
        sum(span.attrs["flop"] for span in body + gathers) / 1e6 / requests
    )
    out["llm.prefix_cache.invalidated_per_ingest"] = _ratio(
        sum(
            span.attrs["invalidated"]
            for span in spans
            if span.name == "llm.prefix_cache.sync_catalog"
        ),
        ingests,
    )

    # Counters the serving objects keep (over the traced client's life).
    stats = [service.stats for service in served.services]
    served_requests = sum(s.requests for s in stats)
    batches = sum(s.batches for s in stats)
    flushes = sum(s.size_flushes + s.deadline_flushes for s in stats)
    out["serving.service.mean_batch_size"] = _ratio(served_requests, batches)
    out["serving.service.mean_padding_fraction"] = _ratio(
        sum(s.padding_fraction_sum for s in stats), batches
    )
    out["serving.service.deadline_flush_share"] = _ratio(
        sum(s.deadline_flushes for s in stats), flushes
    )
    out["serving.service.joins_per_admission"] = _ratio(
        sum(s.joins for s in stats), sum(s.admissions for s in stats)
    )
    narrowed = sum(s.hybrid_narrowed for s in stats)
    out["retrieval.hybrid.narrowed_share"] = _ratio(
        narrowed, narrowed + sum(s.hybrid_retrieval for s in stats)
    )
    caches = [
        service.prefix_cache.stats for service in served.services
        if service.prefix_cache is not None
    ]
    out["llm.prefix_cache.token_hit_rate"] = _ratio(
        sum(c.reused_tokens for c in caches), sum(c.prompt_tokens for c in caches)
    )
    out["llm.prefix_cache.evictions_per_req"] = _ratio(
        sum(c.evictions for c in caches), served_requests
    )
    if served.cluster is not None:
        cluster = served.cluster.stats
        out["serving.cluster.affinity_hit_rate"] = cluster.affinity_hit_rate
        out["serving.cluster.spilled_share"] = _ratio(cluster.spilled, cluster.submitted)
        loads = list(cluster.per_worker.values())
        out["serving.cluster.worker_imbalance"] = _ratio(max(loads), statistics.fmean(loads))

    # The traced run against the untraced one, and what the host looked like.
    untraced_epoch = statistics.median(e.nms for e in untraced.epochs)
    out["trace.overhead_share"] = statistics.median(e.nms for e in traced.epochs) / untraced_epoch - 1.0
    out["serving.service.busy_cpu_nms"] = statistics.median(
        e.busy_s * e.scale for e in untraced.epochs
    ) / quota_of(untraced)
    if untraced.ingests:
        out["serving.client.ingest_p50_nms"] = percentile([i.nms for i in untraced.ingests], 50)
    probes = untraced.probes_ms + traced.probes_ms
    quartiles = statistics.quantiles(probes, n=4)
    out["host.probe_p50_ms"] = quartiles[1]
    out["host.probe_iqr_share"] = (quartiles[2] - quartiles[0]) / quartiles[1]
    out["host.raw_throughput_rps"] = quota_of(untraced) / statistics.median(
        e.end - e.start for e in untraced.epochs
    )
    out["host.raw_latency_p50_ms"] = 1000.0 * percentile(
        [r.observed - r.submit_start for r in untraced.requests], 50
    )
    return out
