"""The one client API every serving mode speaks.

PRs 1–5 grew four ways to serve a recommendation — synchronous flushes,
the deadline-batched background loop, continuous batching, and now the
multi-worker cluster — and this module pins down the single surface they
all share, so callers are *mode-agnostic*:

* :class:`RecommendationClient` — ``submit(...) -> RecommendationHandle``
  plus the intention/instruction variants, ``recommend_many``,
  ``start``/``stop`` and context-manager lifecycle.  Implemented by
  :class:`repro.serving.RecommendationService` (one engine, one decode
  thread) and :class:`repro.serving.ServingCluster` (N workers behind an
  affinity router); swapping one for the other changes no caller code.
* :class:`RecommendationHandle` — the future-style result protocol
  (``request_id``, ``done``, ``result(timeout)``, ``degraded``,
  ``degraded_reason``).  The service's
  :class:`repro.serving.PendingRecommendation` satisfies it, as do
  :class:`RejectedRecommendation`, the pre-failed handle admission
  control returns instead of raising at the submit site, and
  :class:`DegradedRecommendation`, the pre-served handle the retrieval
  fast lane returns.
* :class:`Overloaded` — the typed rejection.  Under overload a client
  *sheds* work instead of queueing unboundedly: a full bounded queue or a
  missed per-request deadline fails the handle with an ``Overloaded``
  carrying a machine-readable ``reason`` (``"queue_full"`` /
  ``"deadline"``), so callers can tell "the system protected itself" from
  "the decode broke" and fall back accordingly.
* :class:`FallbackRecommender` — the duck type of the retrieval fast
  lane.  A client configured with a fallback *serves* would-be-shed
  requests from it instead of rejecting them: the handle resolves with
  the fallback's ranking and ``degraded`` is True, so callers always
  know when a result is retrieval-quality rather than LLM-quality —
  degradation is typed, never silent.
  :class:`repro.retrieval.RetrievalRecommender` is the shipped
  implementation; the protocol keeps ``repro.serving`` free of any
  import on it.

Thread safety: handles may be shared and awaited from any thread; the
client implementations document their own submit/lifecycle guarantees.
"""

from __future__ import annotations

import abc
from typing import Protocol, Sequence, runtime_checkable

__all__ = [
    "DegradedRecommendation",
    "FallbackRecommender",
    "Overloaded",
    "RecommendationHandle",
    "RejectedRecommendation",
    "RecommendationClient",
]


@runtime_checkable
class FallbackRecommender(Protocol):
    """What the serving layer needs from a retrieval fast lane.

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


@runtime_checkable
class RecommendationHandle(Protocol):
    """Future-style result of one submitted request, mode-agnostic.

    ``result`` blocks until the request is served (up to ``timeout``
    seconds, raising ``TimeoutError`` on expiry), returning the ranked
    item ids or raising the request's failure — an :class:`Overloaded`
    if admission control shed it, the decode's exception if its batch
    broke.  Exactly one outcome is ever delivered per handle.

    ``degraded`` is True when the result came from the retrieval
    fallback lane instead of the LLM decode (load shedding or cold
    start); it never flips after the handle resolves.  Degraded results
    are always flagged — a caller can rely on ``degraded`` being False
    to mean "this ranking came out of the constrained decoder".
    ``degraded_reason`` says why the fast lane fired (``None`` when it
    did not).
    """

    @property
    def request_id(self) -> int: ...

    @property
    def done(self) -> bool: ...

    @property
    def degraded(self) -> bool: ...

    @property
    def degraded_reason(self) -> str | None: ...

    def result(self, timeout: float | None = None) -> list[int]: ...


class RejectedRecommendation:
    """A handle born failed: admission control refused the request.

    Returned by ``submit`` when nothing was enqueued (e.g. every
    admissible worker queue was full), so the caller sees the same
    handle surface on the rejection path as on the happy path — no
    exception racing out of ``submit`` while other submits succeed.
    """

    def __init__(self, error: Overloaded, request_id: int = -1):
        self._error = error
        self._request_id = request_id

    @property
    def request_id(self) -> int:
        return self._request_id

    @property
    def done(self) -> bool:
        return True

    @property
    def degraded(self) -> bool:
        """A rejection serves nothing, degraded or otherwise."""
        return False

    @property
    def degraded_reason(self) -> None:
        return None

    def result(self, timeout: float | None = None) -> list[int]:
        raise self._error


class DegradedRecommendation:
    """A handle born served — by the retrieval fast lane, not the LLM.

    Returned when admission control would have shed the request, or its
    history is empty, and a :class:`FallbackRecommender` is configured:
    retrieval answers immediately instead of queueing (or rejecting), and
    the handle is already resolved.  ``degraded`` is True and
    ``degraded_reason`` says why the fast lane fired (``"queue_full"`` —
    every admissible backlog was at its bound; ``"cold_start"`` — the
    history carries no signal the LLM lane could use), so degraded results
    can never masquerade as LLM-quality ones.
    """

    def __init__(self, items: Sequence[int], degraded_reason: str, request_id: int = -1):
        self._items = [int(item) for item in items]
        self.degraded_reason = degraded_reason
        self._request_id = request_id

    @property
    def request_id(self) -> int:
        return self._request_id

    @property
    def done(self) -> bool:
        return True

    @property
    def degraded(self) -> bool:
        return True

    def result(self, timeout: float | None = None) -> list[int]:
        return list(self._items)


class RecommendationClient(abc.ABC):
    """The mode-agnostic serving surface: submit requests, await handles.

    Subclasses provide the three ``submit*`` entry points and the
    lifecycle; everything here is shared convenience built on them.  The
    keyword-only ``session_key`` (routing affinity) and ``deadline_ms``
    (shed budget) are accepted by every implementation — a single-process
    service ignores ``session_key`` and a cluster routes on it, so code
    written against the client protocol runs unchanged on either.
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
    ) -> RecommendationHandle:
        """Queue a next-item recommendation for an interaction history."""

    @abc.abstractmethod
    def submit_intention(
        self,
        intention_text: str,
        top_k: int = 10,
        *,
        session_key: str | None = None,
        deadline_ms: float | None = None,
    ) -> RecommendationHandle:
        """Queue an intention-query retrieval (engines that encode intentions)."""

    @abc.abstractmethod
    def submit_instruction(
        self,
        instruction: str,
        top_k: int = 10,
        *,
        session_key: str | None = None,
        deadline_ms: float | None = None,
    ) -> RecommendationHandle:
        """Queue an already-rendered instruction (engines that encode text)."""

    @abc.abstractmethod
    def flush(self) -> int:
        """Decode everything queued synchronously; returns requests served."""

    def ingest_item(
        self,
        *,
        text: str | None = None,
        embedding=None,
        popularity_count: int = 0,
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
        self, histories: Sequence[Sequence[int]], top_k: int = 10, template_id: int = 0
    ) -> list[list[int]]:
        """Submit + await a whole batch of histories, preserving order.

        Works in both lifecycles: without background serving this is
        submit-all + one ``flush()``; with it, the background loops do the
        flushing and ``result()`` blocks until delivery.
        """
        pending = [
            self.submit(history, top_k=top_k, template_id=template_id) for history in histories
        ]
        if not self.is_running:
            self.flush()
        return [handle.result() for handle in pending]
