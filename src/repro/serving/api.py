"""The one client API every serving mode speaks.

Synchronous flushes, the deadline-batched background loop, continuous
batching and the multi-worker cluster all share the surface pinned down
here, so callers are *mode-agnostic*:

* :class:`RecommendationClient` — ``submit(history, ...) ->
  PendingRecommendation``, ``recommend_many``, ``start``/``stop`` and
  context-manager lifecycle.  Implemented by
  :class:`repro.serving.RecommendationService` (one engine, one decode
  thread) and :class:`repro.serving.ServingCluster` (N workers behind an
  affinity router); swapping one for the other changes no caller code.
* :class:`PendingRecommendation` — the one handle every ``submit``
  returns (``request_id``, ``done``, ``result(timeout)``, ``degraded``,
  ``degraded_reason``), whether the request is decoded, served from
  retrieval, or turned away.
* :func:`turn_away` — the one path for a request the LLM lane will not
  decode (cold start, no hybrid candidates, a full queue, a deadline that
  expired in the queue, a saturated cluster front door): it answers from
  the configured retrieval tier, flagged ``degraded``, or fails the
  handle with a typed :class:`Overloaded`, and moves exactly one counter.
  ``docs/serving.md`` ("Turning a request away") tabulates reason,
  counter and tier.
* :class:`Overloaded` — the typed rejection.  Under overload a client
  *sheds* work instead of queueing unboundedly, and the failure's
  machine-readable ``reason`` (``"queue_full"`` / ``"deadline"``) lets
  callers tell "the system protected itself" from "the decode broke".
* :class:`FallbackRecommender` — the duck type of a retrieval tier.
  :class:`repro.retrieval.RetrievalRecommender` is the shipped
  implementation; the protocol keeps ``repro.serving`` free of any
  import on it.

Thread safety: handles may be shared and awaited from any thread; the
client implementations document their own submit/lifecycle guarantees.
"""

from __future__ import annotations

import abc
import threading
from typing import Protocol, Sequence, runtime_checkable

from .queue import next_request_id

__all__ = [
    "FallbackRecommender",
    "Overloaded",
    "PendingRecommendation",
    "RecommendationClient",
    "turn_away",
]


@runtime_checkable
class FallbackRecommender(Protocol):
    """What the serving layer needs from a retrieval tier.

    Any object answering ``recommend(history, top_k) -> list[int]``
    cheaply (no model forward — it runs inline on submit and shed paths)
    and from any thread (concurrent reads, no mutation) qualifies.
    """

    def recommend(self, history: Sequence[int], top_k: int = 10) -> list[int]: ...


class Overloaded(RuntimeError):
    """Typed admission-control rejection: the request was shed, not failed.

    ``reason`` says which protection fired:

    * ``"queue_full"`` — every admissible queue was at its depth bound at
      submit time; nothing was enqueued.
    * ``"deadline"`` — the request's shed deadline passed while it was
      still queued; it was dropped when its decode would have started.

    Shedding is graceful degradation, not an error in the model: the
    caller should retry later, lower its offered load, or serve a cheap
    fallback.  The request was *not* decoded.
    """

    def __init__(self, message: str, reason: str = "queue_full"):
        super().__init__(message)
        self.reason = reason


class PendingRecommendation:
    """Future-style result of one submitted request, mode-agnostic.

    ``result`` blocks until the request is settled (up to ``timeout``
    seconds, raising ``TimeoutError`` on expiry), returning the ranked
    item ids or raising the request's failure — an :class:`Overloaded`
    if it was turned away with no retrieval tier to answer it, the
    decode's exception if its batch broke.  Exactly one outcome is ever
    delivered per handle.

    ``degraded`` is True when the ranking came from a retrieval tier
    instead of the constrained decoder, and ``degraded_reason`` says why
    (``None`` otherwise); neither flips after the handle resolves, so
    ``degraded`` being False means "this ranking came out of the
    constrained decoder".

    ``service`` is the :class:`repro.serving.RecommendationService` that
    queued the request: ``result`` on a stopped service serves its queue.
    A handle :func:`turn_away` settles at submit has none — it is born
    done, with a fresh ``request_id`` from the counter requests draw from.

    Thread safety: the handle is written once by whichever thread settles
    it (delivery is signalled through a :class:`threading.Event`) and may
    be read from any thread; ``result`` and ``done`` never race the
    writer.
    """

    def __init__(self, service=None, request_id: int | None = None):
        self._service = service
        self._request_id = next_request_id() if request_id is None else request_id
        self._event = threading.Event()
        self._result: list[int] | None = None
        self._error: BaseException | None = None
        self._degraded_reason: str | None = None

    @property
    def request_id(self) -> int:
        return self._request_id

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def degraded(self) -> bool:
        """True when a retrieval tier served this request (meaningful once ``done``)."""
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        return self._degraded_reason

    def result(self, timeout: float | None = None) -> list[int]:
        """The ranked item ids, blocking until the request is served.

        With the background loop running, blocks (up to ``timeout``
        seconds, raising ``TimeoutError`` on expiry) until the loop serves
        this request.  Without it, serves the queue synchronously — but
        unlike an explicit ``flush()`` never raises another request's
        error: only this request's own failure is raised here.
        """
        if not self._event.is_set() and not self._service.is_running:
            self._service._drain()
        if not self._event.wait(timeout):
            raise TimeoutError(f"request {self._request_id} not served within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result

    def _deliver(self, result: list[int], degraded_reason: str | None = None) -> None:
        self._degraded_reason = degraded_reason
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


def turn_away(
    stats,
    reason: str,
    tier: FallbackRecommender | None,
    history: list[int],
    top_k: int,
    *,
    served: str,
    shed: str = "",
    message: str = "",
    handle: PendingRecommendation | None = None,
) -> PendingRecommendation:
    """Settle a request the LLM lane will not decode: degrade it, or fail it typed.

    With a retrieval ``tier``, the handle resolves with the tier's ranking
    of ``history``, ``degraded_reason=reason``, and ``stats``' ``served``
    counter moves; otherwise it fails with ``Overloaded(message, reason)``
    and the ``shed`` counter moves — served and shed are disjoint
    outcomes.  ``handle`` is the queued request's own handle; by default a
    new one is born settled.
    """
    handle = PendingRecommendation() if handle is None else handle
    stats.count(served if tier is not None else shed)
    if tier is not None:
        handle._deliver([int(item) for item in tier.recommend(history, top_k)], reason)
    else:
        handle._fail(Overloaded(message, reason=reason))
    return handle


class RecommendationClient(abc.ABC):
    """The mode-agnostic serving surface: submit requests, await handles.

    Subclasses provide ``submit``, ``flush`` and the lifecycle; everything
    here is shared convenience built on them.  The
    keyword-only ``session_key`` (routing affinity) and ``deadline_ms``
    (shed budget) are accepted by every implementation — a single-process
    service stores a keyed prompt's K/V whole in its prefix cache and a
    cluster also routes on it, so code written against the client
    protocol runs unchanged on either.
    """

    @abc.abstractmethod
    def submit(
        self,
        history: Sequence[int],
        top_k: int = 10,
        template_id: int = 0,
        *,
        session_key: str | None = None,
        deadline_ms: float | None = None,
    ) -> PendingRecommendation:
        """Queue a next-item recommendation for an interaction history."""

    @abc.abstractmethod
    def flush(self) -> int:
        """Decode everything queued synchronously; returns requests served."""

    def ingest_item(
        self,
        *,
        text: str | None = None,
        embedding=None,
    ):
        """Add one item to the live catalog behind this client.

        Implemented by clients whose engine serves from a
        :class:`repro.core.LiveCatalog`: the item's semantic indices are
        encoded online, a new catalog version is published atomically,
        and the next submitted request can be recommended the new item —
        in-flight decodes finish against their pinned version.  Returns
        the catalog's :class:`repro.core.IngestedItem`.  Clients without
        a live catalog raise ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no live catalog to ingest into"
        )

    @abc.abstractmethod
    def start(self) -> "RecommendationClient":
        """Launch background serving; returns self for chaining."""

    @abc.abstractmethod
    def stop(self, drain: bool = True) -> None:
        """Stop background serving, by default draining in-flight work."""

    @property
    @abc.abstractmethod
    def is_running(self) -> bool:
        """Whether background serving is active."""

    def __enter__(self) -> "RecommendationClient":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def recommend_many(
        self, histories: Sequence[Sequence[int]], top_k: int = 10
    ) -> list[list[int]]:
        """Submit + await a whole batch of histories, preserving order.

        Works in both lifecycles: without background serving this is
        submit-all + one ``flush()``; with it, the background loops do the
        flushing and ``result()`` blocks until delivery.
        """
        pending = [self.submit(history, top_k=top_k) for history in histories]
        if not self.is_running:
            self.flush()
        return [handle.result() for handle in pending]
