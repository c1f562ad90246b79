"""Request queue for the batched recommendation service.

Requests arrive one at a time (interactive traffic) but are decoded in
micro-batches; the queue is the buffer between the two.  It is a
thread-safe FIFO with a condition variable on top: producers ``try_push``
from any thread, and the consumer either ``drain``\\ s explicitly (synchronous
serving), blocks in :meth:`RequestQueue.await_batch` until a flush is
due (the deadline loop) — due meaning a full batch is waiting or the
oldest request has exceeded its latency budget — or parks in
:meth:`RequestQueue.await_request` until anything is queued and then pops
a cohort off the head with :meth:`RequestQueue.pop_front` (the
continuous loop).

Thread safety: every method takes the internal condition's lock;
``try_push``/``drain``/``await_batch``/``kick`` may be called concurrently
from any mix of threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = ["RecommendRequest", "RequestQueue"]

_request_counter = itertools.count()


def next_request_id() -> int:
    """A fresh process-wide request id: every request and every handle draws here."""
    return next(_request_counter)


def check_top_k(top_k: int) -> None:
    """Raise ``ValueError`` unless ``top_k`` asks for at least one item."""
    if top_k < 1:
        raise ValueError("top_k must be positive")


def check_template_id(template_id: int, num_templates: int) -> None:
    """Raise ``ValueError`` unless ``template_id`` names one of the engine's prompt templates."""
    if not 0 <= template_id < num_templates:
        raise ValueError(f"template_id must be in [0, {num_templates}), got {template_id}")


def check_deadline_ms(deadline_ms: float | None) -> None:
    """Raise ``ValueError`` unless ``deadline_ms`` is a positive shed budget or ``None``."""
    if deadline_ms is not None and deadline_ms <= 0:
        raise ValueError("deadline_ms must be positive (or None for no deadline)")


def check_history(history: Sequence[int], num_items: int) -> None:
    """Raise ``ValueError`` naming the first id in ``history`` that is not an item.

    Items are Python or numpy integers (not ``bool``) in ``[0, num_items)``,
    the engine's live count.  A plain loop: submitters share the GIL with decode.
    """
    for item in history:
        integer = isinstance(item, (int, np.integer)) and not isinstance(item, bool)
        if not (integer and 0 <= item < num_items):
            raise ValueError(f"history item {item!r} is not an item id in [0, {num_items})")


@dataclass
class RecommendRequest:
    """One queued recommendation call, already encoded to prompt ids.

    ``beam_size`` is the *effective* beam width this request must be decoded
    with (already folding in ``top_k``); the batcher never mixes beam widths
    in one micro-batch, because beam width changes rankings and co-batched
    requests must get exactly the results they would get decoded alone.
    ``enqueued_at`` (monotonic seconds) is what deadline-based flushing
    measures request age against.

    ``session_key`` is an opaque caller-supplied affinity key (user or
    session id); the cluster router hashes it so a session's refresh
    traffic lands on the worker already holding its prompt K/V.  It never
    affects rankings.  ``deadline`` is an absolute ``time.monotonic()``
    instant after which the request would rather be shed (failed with a
    typed :class:`repro.serving.Overloaded`) than decoded late; ``None``
    means wait forever.  The shed check runs when a decode *starts* — a
    request already being decoded when its deadline passes completes
    normally (completion wins the race).

    ``history`` is the raw interaction history behind a ``submit`` call
    (``None`` for instruction/intention submits, which have no item
    history).  The decode never reads it; it exists so a configured
    retrieval fallback can serve the request at shed time — after
    encoding, the prompt ids alone cannot be mapped back to items.

    ``narrow_items`` is the hybrid lane's retrieval candidate set (``None``
    = full-trie decode).  The engine's prefill turns it into the row's node
    mask of the decode trie — same rankings over the candidates as a full
    decode, less work.  Narrowing is per decode row, so it never decides
    who a request is batched with.
    """

    prompt_ids: list[int]
    top_k: int = 10
    beam_size: int = 0
    session_key: str | None = None
    deadline: float | None = None
    request_id: int = field(default_factory=next_request_id)
    enqueued_at: float = field(default_factory=time.monotonic)
    history: list[int] | None = None
    narrow_items: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_top_k(self.top_k)

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_ids)

    @property
    def expired(self) -> bool:
        """Whether the request's shed deadline (if any) has passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline


class RequestQueue:
    """Thread-safe FIFO of :class:`RecommendRequest` with deadline waits.

    ``max_depth`` bounds how many requests may wait at once (admission
    control): :meth:`try_push` refuses the overflow instead of queueing
    unboundedly, which is what keeps latency bounded under overload —
    callers turn a refusal into a typed :class:`repro.serving.Overloaded`
    rejection.  ``None`` (the default) keeps the queue unbounded, the
    pre-cluster behaviour.
    """

    def __init__(self, max_depth: int | None = None) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be positive (or None for unbounded)")
        self._items: deque[RecommendRequest] = deque()
        self._cond = threading.Condition()
        self.max_depth = max_depth

    def try_push(self, request: RecommendRequest) -> bool:
        """Enqueue unless the depth bound is reached; False means refused."""
        with self._cond:
            if self.max_depth is not None and len(self._items) >= self.max_depth:
                return False
            self._items.append(request)
            self._cond.notify_all()
            return True

    def drain(self) -> list[RecommendRequest]:
        """Pop every waiting request, FIFO."""
        with self._cond:
            return self._drain_locked()

    def _drain_locked(self) -> list[RecommendRequest]:
        drained = list(self._items)
        self._items.clear()
        return drained

    def await_batch(
        self,
        deadline: float,
        max_size: int,
        should_stop: Callable[[], bool],
    ) -> tuple[list[RecommendRequest], str]:
        """Block until a flush is due, then drain the whole queue.

        A flush is due when ``max_size`` requests are waiting (returns
        reason ``"size"``) or when the oldest waiting request is older than
        ``deadline`` seconds (reason ``"deadline"``).  Returns
        ``([], "stop")`` as soon as ``should_stop()`` turns true; callers
        flip their stop flag and :meth:`kick` the queue to wake this wait.
        """
        with self._cond:
            while not should_stop():
                if not self._items:
                    self._cond.wait()
                    continue
                if len(self._items) >= max_size:
                    return self._drain_locked(), "size"
                age = time.monotonic() - self._items[0].enqueued_at
                if age >= deadline:
                    return self._drain_locked(), "deadline"
                self._cond.wait(timeout=deadline - age)
            return [], "stop"

    def await_request(self, should_stop: Callable[[], bool]) -> bool:
        """Block until at least one request is queued (True) or stop (False).

        The continuous loop parks here between cohorts: unlike
        :meth:`await_batch` there is no deadline to wait out — admission
        happens immediately, and whatever queues up while a cohort decodes
        becomes the next cohort.
        """
        with self._cond:
            while not should_stop():
                if self._items:
                    return True
                self._cond.wait()
            return False

    def pop_front(
        self,
        limit: int,
        key: Callable[[RecommendRequest], object] | None = None,
    ) -> list[RecommendRequest]:
        """Pop up to ``limit`` requests from the head that share the head's ``key``.

        FIFO order is never bypassed: a request whose key differs from the
        head's blocks the ones behind it until the next pop, rather than
        being overtaken.  The continuous loop uses this to take a cohort of
        up to ``max_batch_size`` requests of the head's effective beam
        width, since one cohort is one decode.
        """
        with self._cond:
            popped: list[RecommendRequest] = []
            head = key(self._items[0]) if key is not None and self._items else None
            while self._items and len(popped) < limit:
                if key is not None and key(self._items[0]) != head:
                    break
                popped.append(self._items.popleft())
            return popped

    def kick(self) -> None:
        """Wake every queue waiter to re-check its stop flag."""
        with self._cond:
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def __bool__(self) -> bool:
        return len(self) > 0
