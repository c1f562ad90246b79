"""The scheduler: the one driver of an engine's resumable decode.

Every serving mode runs the same tick on the same
:class:`ContinuousScheduler` — :meth:`~ContinuousScheduler.admit`, then
:meth:`~ContinuousScheduler.step` — and differs only in what it admits
when (see :class:`repro.serving.RecommendationService`).  Admitting only
into an idle scheduler gives *closed* batches: a request arriving one tick
after a flush waits for the whole in-flight batch to finish every trie
level before its own decode even starts, which caps throughput and
inflates tail latency exactly where interactive traffic hurts most.
Trie-constrained decoding, however, is level-synchronous with a tiny
fixed depth — the generative-retrieval serving shape every
:class:`repro.serving.GenerativeEngine` exposes — so *trie-level
boundaries* are natural admission points: between two levels an engine's
whole state is one opaque :class:`EngineState`, and

* newly queued requests are prefilled on the side
  (:meth:`GenerativeEngine.prefill`) and joined onto the live state
  (:meth:`GenerativeEngine.join`),
* finished rows are retired and delivered the moment they reach the final
  level (:meth:`GenerativeEngine.retire`), not at batch end.

Joins are for an empty queue.  A join copies the live K/V, flushes pending
forced tokens and prefills a trickle, so under backlog it costs more than
it saves (``docs/serving.md``, "Continuous batching"):
:meth:`ContinuousScheduler.admission_limit` admits into a live decode only
when the *whole* queue fits the free width, and otherwise nothing — the
live cohort finishes within ``num_levels - 1`` ticks, its rows retire
together, and the idle scheduler takes up to ``max_width`` in one prefill.

Rankings are identical to decoding each request alone no matter when it is
admitted — joining must never change a live row's decode inputs, the
correctness invariant the parity suite (``tests/test_serving_continuous.py``)
pins down.  An engine that cannot join (:meth:`GenerativeEngine.can_join`
is ``False``: TIGER) is never offered a mid-flight admission, so it
degrades to closed batches by itself.

Thread safety: the scheduler is *not* thread-safe; the service drives it
from one thread at a time (the background loop, or a caller's ``flush``)
under its decode lock.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..llm import BeamHypothesis
from .engine import EngineState, GenerativeEngine
from .queue import RecommendRequest

__all__ = ["ContinuousScheduler"]


class ContinuousScheduler:
    """Drives one in-flight decode, admitting and retiring at level boundaries.

    Parameters
    ----------
    engine:
        A :class:`repro.serving.GenerativeEngine`; the scheduler owns
        exactly one of its decode states at a time.
    max_width:
        Cap on the joined batch width (requests in flight at once); queued
        requests beyond it wait for retirements to free rows.
    """

    def __init__(self, engine: GenerativeEngine, *, max_width: int = 16):
        if max_width < 1:
            raise ValueError("max_width must be positive")
        self.engine = engine
        self.max_width = max_width
        self._state: EngineState | None = None
        self.admissions = 0  # admit() calls that added at least one request
        self.joins = 0  # admissions that joined an already-live decode

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Requests currently in flight."""
        return self._state.num_rows if self._state is not None else 0

    @property
    def free_width(self) -> int:
        """Rows the width cap still allows to be admitted."""
        return self.max_width - self.width

    @property
    def idle(self) -> bool:
        return self.width == 0

    def admission_limit(self, queued: int) -> int:
        """How many of ``queued`` waiting requests this tick may admit.

        The free width while the whole queue fits it (always, when idle or
        lightly loaded: a late arrival joins at the next level boundary);
        nothing while it does not — a backlog waits for the live cohort to
        finish and is then served as full cohorts.
        """
        return self.free_width if self.idle or queued <= self.free_width else 0

    def compatible(self, request: RecommendRequest) -> bool:
        """Whether ``request`` may join the current decode.

        Delegates to the engine (:meth:`GenerativeEngine.can_join`), which
        owns the join constraints — e.g. the shared-beam-width rule of the
        trie-decoder engines.  An idle scheduler accepts anything.
        """
        if self._state is None:
            return True
        return self.engine.can_join(self._state, request)

    def admission_predicate(self) -> Callable[[RecommendRequest], bool]:
        """A fresh FIFO pop predicate for one admission round.

        With a live decode this is :meth:`compatible`.  Idle, it latches
        the first candidate's effective beam width and admits only
        matching followers: one admission is one engine prefill, which
        requires a uniform effective width — a mixed queue must be split
        across admission rounds (FIFO prefix by prefix), not popped
        wholesale and failed by prefill's validation.
        """
        if self._state is not None:
            return self.compatible
        latched: list[int] = []

        def admit(request: RecommendRequest) -> bool:
            key = self.engine.effective_beams(request.beam_size)
            if not latched:
                latched.append(key)
            return key == latched[0]

        return admit

    # ------------------------------------------------------------------
    # Admission and stepping
    # ------------------------------------------------------------------
    def admit(self, requests: Sequence[RecommendRequest]) -> None:
        """Prefill ``requests`` and join them onto the in-flight decode.

        All requests of one admission are prefilled as a single batch (one
        engine prefill) and must be join-compatible with the live decode;
        the caller gates candidates through :meth:`compatible` and
        ``free_width``.
        """
        requests = list(requests)
        if not requests:
            return
        if len(requests) > self.free_width:
            raise ValueError(f"admission of {len(requests)} exceeds free width {self.free_width}")
        incoming = self.engine.prefill(requests)
        self.admissions += 1
        if self._state is None:
            self._state = incoming
        else:
            self.engine.join(self._state, incoming)
            self.joins += 1

    def step(self) -> list[tuple[RecommendRequest, list[BeamHypothesis]]]:
        """Retire finished rows, advance one trie level, retire again.

        Returns ``(request, hypotheses)`` pairs for every request completed
        by this call.  Finished rows are delivered *before* the remaining
        rows' next level runs, so an early request never waits on later
        admissions.
        """
        delivered = self._retire_finished()
        if self._state is not None:
            self.engine.step(self._state)
            delivered.extend(self._retire_finished())
        return delivered

    def _retire_finished(self) -> list[tuple[RecommendRequest, list[BeamHypothesis]]]:
        if self._state is None:
            return []
        rows = self._state.finished_rows()
        if not rows:
            return []
        tags = [self._state.tags[row] for row in rows]
        hypotheses = self.engine.retire(self._state, rows)
        if self._state.num_rows == 0:
            self._state = None
        return list(zip(tags, hypotheses))

    def abort(self) -> list[RecommendRequest]:
        """Drop the in-flight decode, returning its requests (to be failed)."""
        tags = list(self._state.tags) if self._state is not None else []
        self._state = None
        return tags
