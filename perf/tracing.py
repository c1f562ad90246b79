"""Span recorder and the wrappers that put spans around each layer.

Tracing lives here, outside ``src/``: the recorder replaces public
callables (class attributes, module attributes, or one instance's
attribute) with timing wrappers while a traced phase runs and restores
them afterwards.  Class-level patches are what let spans follow objects
the system creates on its own — ``replicate()``d engines, per-ingest
``IndexTrie`` snapshots, per-request narrowed subtries.

A span is ``(id, name, thread, start, end, parent, epoch, attrs)``; the
parent comes from a thread-local stack, so a span's *self time* is its
duration minus the time its children cover.  Spans stay in memory and
are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

__all__ = ["Span", "Recorder", "install_layer_spans"]


class Span(NamedTuple):
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int  # -1 for a thread's top-level spans
    epoch: int
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any number of threads.

    ``epoch`` is stamped on every span at its start; the load generator
    sets it before each epoch so a span can be normalised by the probes
    that bracket its epoch.  Appends and id allocation are single
    bytecode-level operations, so no lock is taken on the hot path.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.epoch = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int, int, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return span_id, parent, self.epoch, time.perf_counter()

    def end(self, name: str, token: tuple[int, int, int, float], attrs: dict | None = None) -> None:
        end = time.perf_counter()
        span_id, parent, epoch, start = token
        self._stack().pop()
        self.spans.append(
            Span(span_id, name, threading.get_ident(), start, end, parent, epoch, attrs)
        )

    # -- patching --------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs: Callable[[tuple, dict, Any, Any], dict | None] | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs, result, pre)`` runs after the call, inside
        the span, and returns what to keep on it (request ids, shapes,
        counts); ``pre`` is what ``before(args, kwargs)`` returned before
        the call, for callables that mutate their arguments.  ``args``
        includes ``self`` for class-level patches.
        """
        original = owner.__dict__[attr] if attr in getattr(owner, "__dict__", {}) else None
        target = getattr(owner, attr)
        recorder = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            token = recorder.begin()
            try:
                result = target(*args, **kwargs)
            except BaseException:
                recorder.end(name, token)
                raise
            recorder.end(name, token, attrs(args, kwargs, result, pre) if attrs else None)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)  # was inherited or class-provided
            else:
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its children.

        Children of one span run on one thread and never overlap, so the
        covered time is the plain sum of their durations.
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return {span.id: span.duration - covered[span.id] for span in self.spans}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans):  # by id: the order spans began in
                out.write(json.dumps(span._asdict()))
                out.write("\n")


# ----------------------------------------------------------------------
# What each wrapper keeps on its span
# ----------------------------------------------------------------------
def _request_ids(requests) -> list[int]:
    return [request.request_id for request in requests]


def _prefill_attrs(args, kwargs, state, pre):
    return {"requests": _request_ids(args[1]), "forwards": state.forwards}


def _before_step(args, kwargs):
    return args[1].forwards, args[1].num_rows


def _step_attrs(args, kwargs, result, pre):
    return {"forwards": args[1].forwards - pre[0], "rows": pre[1]}


def _before_join(args, kwargs):
    return args[1].forwards + args[2].forwards


def _join_attrs(args, kwargs, result, pre):
    return {"forwards": args[1].forwards - pre}  # the pending-token flush, if any


def _finalize_attrs(args, kwargs, result, pre):
    return {"requests": _request_ids(args[1])}


def _before_forward(args, kwargs):
    caches = kwargs.get("caches")
    return caches[0].length if caches else 0


def _forward_attrs(args, kwargs, result, cached):
    """Shapes of one transformer-body forward and the GEMM work they imply."""
    model, tokens = args[0], args[1]
    rows, new = tokens.shape
    keys = cached + new
    config = model.config
    dim, ffn = config.dim, config.ffn_hidden
    per_layer = 2 * rows * new * (4 * dim * dim + 3 * dim * ffn) + 4 * rows * new * keys * dim
    return {"rows": rows, "tokens": rows * new, "flop": config.num_layers * per_layer}


def _gather_attrs(args, kwargs, result, pre):
    hidden, token_ids = args[1], args[2]
    return {"flop": 2 * hidden.shape[0] * hidden.shape[1] * len(token_ids)}


def install_layer_spans(recorder: Recorder) -> None:
    """Patch the public callables of every layer (see README, "Layers").

    Everything here is class- or module-level; the workload adds the
    instance-level spans (its client's ``submit``/``ingest_item``, a live
    catalog's ``embed``) for the objects it creates.
    """
    from repro.baselines.tiger import TIGER
    from repro.core import catalog as catalog_module
    from repro.core.catalog import LiveCatalog
    from repro.llm.model import TinyLlama
    from repro.llm.prefix_cache import PrefixKVCache
    from repro.quantization.trie import IndexTrie
    from repro.retrieval.hybrid import HybridRecommender
    from repro.retrieval.knn import ClusteredKNNIndex
    from repro.serving import engine as engine_module
    from repro.serving.batcher import MicroBatcher
    from repro.serving.continuous import ContinuousScheduler
    from repro.serving.engine import TIGEREngine, TrieDecoderEngine
    from repro.serving.queue import RequestQueue
    from repro.serving.router import AffinityRouter

    wrap = recorder.wrap
    # Decode-thread idle time: parked waiting for work.
    wrap(RequestQueue, "await_batch", "serving.queue.idle")
    wrap(RequestQueue, "await_request", "serving.queue.idle")
    wrap(MicroBatcher, "plan", "serving.batcher.plan")
    wrap(ContinuousScheduler, "admit", "serving.continuous.admit")
    wrap(
        ContinuousScheduler, "step", "serving.continuous.step",
        lambda args, kwargs, result, pre: {"delivered": len(result or ())},
    )
    for engine_class in (TrieDecoderEngine, TIGEREngine):
        wrap(engine_class, "prefill", "serving.engine.prefill", _prefill_attrs)
        wrap(engine_class, "step", "serving.engine.step", _step_attrs, _before_step)
        wrap(engine_class, "retire", "serving.engine.retire")
        wrap(engine_class, "finalize", "serving.engine.finalize", _finalize_attrs)
    wrap(TrieDecoderEngine, "join", "serving.engine.join", _join_attrs, _before_join)
    wrap(TrieDecoderEngine, "finish", "serving.engine.retire")
    # The stepper functions as the engine module bound them at import.
    wrap(engine_module, "decode_prefill", "llm.generation.prefill")
    wrap(engine_module, "decode_step", "llm.generation.step")
    wrap(engine_module, "decode_join", "llm.generation.join")
    wrap(engine_module, "decode_retire", "llm.generation.retire")
    wrap(engine_module, "decode_finish", "llm.generation.retire")
    wrap(TinyLlama, "hidden_states", "llm.model.forward", _forward_attrs, _before_forward)
    wrap(TinyLlama, "lm_head_gather", "llm.model.head_gather", _gather_attrs)
    for method in ("match", "probe", "insert"):
        wrap(PrefixKVCache, method, f"llm.prefix_cache.{method}")
    wrap(
        PrefixKVCache, "sync_catalog", "llm.prefix_cache.sync_catalog",
        lambda args, kwargs, result, pre: {"invalidated": result or 0},
    )
    for method in ("allowed_token_ids", "allowed_token_mask", "level_union", "union_for_levels"):
        wrap(IndexTrie, method, "quantization.trie.mask")
    wrap(IndexTrie, "subtrie", "quantization.trie.subtrie")
    wrap(IndexTrie, "with_item", "quantization.trie.with_item")
    wrap(AffinityRouter, "affine_worker", "serving.router.route")
    wrap(HybridRecommender, "candidates", "retrieval.hybrid.candidates")
    wrap(ClusteredKNNIndex, "search", "retrieval.knn.search")
    wrap(ClusteredKNNIndex, "with_vector", "retrieval.knn.with_vector")
    wrap(LiveCatalog, "ingest", "core.catalog.ingest")
    wrap(catalog_module, "encode_new_item", "core.indexer.encode")
    wrap(TIGER, "encode", "baselines.tiger.encode")
    wrap(TIGER, "decode_hidden", "baselines.tiger.decode_hidden")
    wrap(TIGER, "head_gather", "baselines.tiger.head_gather")
