"""Micro-batching: group queued requests for one-forward-per-step decoding.

The engine (:func:`repro.llm.beam_search_items_batched`) left-pads every
batch to its longest prompt, so each pad token costs a full extra model
column for the whole beam fan-out.  The batcher therefore buckets requests
by prompt length before slicing them into batches: within a micro-batch the
length spread is bounded by ``bucket_width``, which bounds wasted padding
while still filling batches.

With the cross-request prefix KV cache in play, batch *composition* also
matters for cache effectiveness: requests rendered from the same template
share a long prompt prefix, so co-batching them turns one cached template
head into hits for the whole batch.  ``prefix_locality`` folds the first
few prompt token ids into the sort key, which clusters same-template
requests without changing the batching invariants (beam widths never mix,
length spread stays bounded).

Thread safety: the planner is stateless — ``plan_batches`` is a pure
function of its inputs and a :class:`MicroBatcher` holds only immutable
configuration, so planning may run from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .queue import RecommendRequest

__all__ = ["MicroBatcherConfig", "MicroBatcher", "plan_batches", "padding_fraction"]


@dataclass
class MicroBatcherConfig:
    """Batching policy knobs.

    ``max_batch_size`` doubles as the async flush trigger: the background
    loop flushes as soon as a full batch is waiting, without waiting out
    the deadline.
    """

    max_batch_size: int = 16
    bucket_width: int = 16  # max (longest - shortest) prompt in one batch
    prefix_locality: int = 12  # leading token ids folded into the sort key

    def validate(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.bucket_width < 0:
            raise ValueError("bucket_width must be non-negative")
        if self.prefix_locality < 0:
            raise ValueError("prefix_locality must be non-negative")


def _prompt_len(request: RecommendRequest) -> int:
    return request.prompt_len


def plan_batches(
    requests: list[RecommendRequest],
    config: MicroBatcherConfig,
    effective_len: Callable[[RecommendRequest], int] | None = None,
) -> list[list[RecommendRequest]]:
    """Partition ``requests`` into micro-batches.

    Requests are sorted by (beam width, narrow candidate set, leading
    prompt tokens, effective length) — stable, so FIFO order breaks ties —
    then sliced greedily: a batch closes when it reaches
    ``max_batch_size``, when the next request would stretch the batch's
    length spread beyond ``bucket_width``, or when its beam width or
    ``narrow_items`` differs (one batch is one engine prefill, which takes
    one beam width — it changes rankings — and one narrow set).  The
    leading-token component clusters requests that share a template prefix,
    which feeds the prefix KV cache whole batches of hits.  Every request
    lands in exactly one batch — nothing is dropped.

    ``effective_len`` (default: the prompt length) is the per-request cost
    model the length bucketing runs on.  The service passes the
    *post-prefix-cache* length — prompt length minus the cached prefix the
    decode will skip — because a padded batch's prompt forward is as wide
    as its longest un-cached suffix: co-batching a near-full cache hit with
    a miss would make the hit pay the miss's columns anyway.
    """
    config.validate()
    if not requests:
        return []
    locality = config.prefix_locality
    if effective_len is None:
        effective_len = _prompt_len

    def sort_key(request: RecommendRequest):
        narrow = request.narrow_items or ()  # None sorts beside the tuples
        return (request.beam_size, narrow, request.prompt_ids[:locality], effective_len(request))

    ordered = sorted(requests, key=sort_key)
    batches: list[list[RecommendRequest]] = []
    current: list[RecommendRequest] = []
    min_len = max_len = 0
    for request in ordered:
        length = effective_len(request)
        # Prefix-locality sorting means lengths are not globally ascending,
        # so the spread check tracks the open batch's min and max.
        if current and (
            len(current) >= config.max_batch_size
            or request.beam_size != current[0].beam_size
            or request.narrow_items != current[0].narrow_items
            or max(max_len, length) - min(min_len, length) > config.bucket_width
        ):
            batches.append(current)
            current = []
        if current:
            min_len = min(min_len, length)
            max_len = max(max_len, length)
        else:
            min_len = max_len = length
        current.append(request)
    batches.append(current)
    return batches


def padding_fraction(
    batch: list[RecommendRequest],
    effective_len: Callable[[RecommendRequest], int] | None = None,
) -> float:
    """Fraction of a padded batch's forwarded prompt columns that are padding.

    ``effective_len`` (default: the raw prompt length) is the per-request
    cost model — the service passes the *post-prefix-cache* length, because
    rows whose prefix is served from the cache only forward their unseen
    suffix: a batch of near-full cache hits pads (and costs) far less than
    its raw prompt lengths suggest, and the reported mean must reflect the
    decode cost actually paid.
    """
    if not batch:
        return 0.0
    if effective_len is None:
        effective_len = _prompt_len
    lengths = [effective_len(request) for request in batch]
    total = max(lengths) * len(batch)
    return (total - sum(lengths)) / total if total else 0.0


class MicroBatcher:
    """Stateless planner bound to one configuration."""

    def __init__(self, config: MicroBatcherConfig | None = None):
        self.config = config or MicroBatcherConfig()
        self.config.validate()

    def plan(
        self,
        requests: list[RecommendRequest],
        effective_len: Callable[[RecommendRequest], int] | None = None,
    ) -> list[list[RecommendRequest]]:
        return plan_batches(requests, self.config, effective_len)
