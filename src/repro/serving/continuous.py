"""The scheduler: the one driver of an engine's resumable decode.

Every serving mode runs the same tick on the same
:class:`ContinuousScheduler` — :meth:`~ContinuousScheduler.admit`, then
:meth:`~ContinuousScheduler.step` — and differs only in what it admits
when (see :class:`repro.serving.RecommendationService`).

A decode is a closed cohort.  Trie-constrained generation is a
fixed-depth, level-synchronous beam search (paper Sec. III-D2), so every
row of one prefill reaches the final level on the same step:

* the scheduler admits only when idle — one engine prefill
  (:meth:`GenerativeEngine.prefill`) of up to ``max_width`` requests of one
  effective beam width;
* it steps that cohort one trie level per tick
  (:meth:`GenerativeEngine.step`);
* it retires and delivers every row on the tick the cohort reaches the
  final level (:meth:`GenerativeEngine.retire`), and is idle again.

Requests that arrive while a cohort is in flight wait in the queue for at
most ``num_levels - 1`` ticks.  Mid-flight admission ("continuous joins")
was measured against this idle-only rule under open-loop light load and
lost on p50 and p95, so it is gone (``docs/serving.md``, "Continuous
batching").

Rankings are identical to decoding each request alone, whichever cohort
it lands in — the parity suites (``tests/test_serving_continuous.py``)
pin that down.

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
    """Drives one decode cohort at a time: admit when idle, step, retire.

    Parameters
    ----------
    engine:
        A :class:`repro.serving.GenerativeEngine`; the scheduler owns
        exactly one of its decode states at a time.
    max_width:
        Cap on a cohort's size (requests prefilled together).
    """

    def __init__(self, engine: GenerativeEngine, *, max_width: int = 16):
        if max_width < 1:
            raise ValueError("max_width must be positive")
        self.engine = engine
        self.max_width = max_width
        self._state: EngineState | None = None
        self.admissions = 0  # admit() calls that started a cohort

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Requests currently in flight."""
        return self._state.num_rows if self._state is not None else 0

    @property
    def idle(self) -> bool:
        return self.width == 0

    def admission_predicate(self) -> Callable[[RecommendRequest], bool]:
        """A fresh FIFO pop predicate for one admission into an idle scheduler.

        It latches the first candidate's effective beam width and admits
        only matching followers: one admission is one engine prefill,
        which requires a uniform effective width — a mixed queue must be
        split across admission rounds (FIFO prefix by prefix), not popped
        wholesale and failed by prefill's validation.
        """
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
        """Prefill ``requests`` as the next cohort, in one engine prefill.

        The scheduler must be idle: a cohort runs closed until it retires.
        """
        requests = list(requests)
        if not requests:
            return
        if not self.idle:
            raise RuntimeError("a cohort is in flight: admit only into an idle scheduler")
        if len(requests) > self.max_width:
            raise ValueError(f"admission of {len(requests)} exceeds max width {self.max_width}")
        self._state = self.engine.prefill(requests)
        self.admissions += 1

    def step(self) -> list[tuple[RecommendRequest, list[BeamHypothesis]]]:
        """Advance the cohort one trie level, retiring it once it is finished.

        Returns ``(request, hypotheses)`` pairs for every request completed
        by this call: none, or the whole cohort.  A cohort its prefill
        already finished (a one-level trie) retires without a step.
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
