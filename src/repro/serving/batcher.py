"""Micro-batching: group queued requests for one-forward-per-step decoding.

The prompt phase (:func:`repro.llm.decode_prefill`) left-pads every
batch to its longest prompt, so each pad token costs a full extra model
column for the whole beam fan-out.  The batcher therefore buckets requests
by prompt length before slicing them into batches: within a micro-batch the
length spread is bounded by ``bucket_width``, which bounds wasted padding
while still filling batches.

The planner sorts by what a batch costs — beam width, then effective
length — and by nothing else.  It does not cluster requests that share a
prompt prefix: a prefill matches every row against the prefix cache
*before* the batch's own inserts, so same-prefix requests co-batched miss
together, and any key ahead of the length fragments the length order.

Thread safety: the planner is stateless — ``plan_batches`` is a pure
function of its inputs and a :class:`MicroBatcher` holds only immutable
configuration, so planning may run from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

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
    # Max (longest - shortest) effective length in one batch.  session_cluster's deadline
    # drains plan post-cache lengths, 1-token refreshes beside longer growths: at seed 3
    # (traced, 50 epochs) it closed 14 of 444 batches, and lifting it took padding 0.001 -> 0.006.
    bucket_width: ClassVar[int] = 16

    def validate(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")


def _prompt_len(request: RecommendRequest) -> int:
    return request.prompt_len


def plan_batches(
    requests: list[RecommendRequest],
    config: MicroBatcherConfig,
    effective_len: Callable[[RecommendRequest], int] | None = None,
) -> list[list[RecommendRequest]]:
    """Partition ``requests`` into micro-batches.

    Requests are sorted by (beam width, effective length) — stable, so
    FIFO order breaks ties — then sliced greedily: a batch closes when it
    reaches ``max_batch_size``, when the next request is more than
    ``bucket_width`` longer than the batch's first (its shortest), or when
    its beam width differs (one batch is one engine prefill, which takes
    one beam width — it changes rankings; narrowing is per row and mixes
    freely).  Every request lands in exactly one batch — nothing is
    dropped.

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
    if effective_len is None:
        effective_len = _prompt_len
    keyed = sorted(
        ((request.beam_size, effective_len(request), request) for request in requests),
        key=lambda entry: entry[:2],
    )
    batches: list[list[RecommendRequest]] = []
    current: list[RecommendRequest] = []
    first_len = 0
    for beam_size, length, request in keyed:
        # Lengths ascend within a beam width: the spread is this - the first.
        if current and (
            len(current) >= config.max_batch_size
            or beam_size != current[0].beam_size
            or length - first_len > config.bucket_width
        ):
            batches.append(current)
            current = []
        if not current:
            first_len = length
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
