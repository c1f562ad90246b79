"""Tracer seam: the deleted per-level decode driver.

Every serving mode decodes each cohort in one
:meth:`repro.serving.GenerativeEngine.decode` call (see
:class:`repro.serving.RecommendationService`), so nothing drives a decode
one trie level at a time any more.
"""

__all__ = ["ContinuousScheduler"]


# ----------------------------------------------------------------------
# Tracer seams: no serving path calls these.  ``perf/tracing.py`` wraps
# ``ContinuousScheduler.admit`` / ``step`` by name (``serving.continuous.*``),
# so the class stays, raising, until that wrapper is dropped.
# ----------------------------------------------------------------------
class ContinuousScheduler:
    """Deleted: a service decodes each cohort in one ``engine.decode`` call."""

    def __init__(self, *args, **kwargs):
        raise NotImplementedError("a cohort is one engine.decode call: nothing drives it per level")

    def admit(self, requests) -> None:
        raise NotImplementedError("a cohort is one engine.decode call: nothing drives it per level")

    def step(self) -> None:
        raise NotImplementedError("a cohort is one engine.decode call: nothing drives it per level")
