"""The scenario matrix: composable workload generators for one experiment.

A *scenario* is a deterministic function from ``(dataset, scale, config,
spec)`` to a :class:`ScenarioPlan` — an ordered event list (submits,
flush barriers, catalog ingests) plus the serving wiring the events
assume (service vs cluster, worker count, backlog bound, fallback lane,
prefix cache).  The runner replays the plan against any backend; the
plan itself never touches a model, which is why every (scenario ×
backend) cell of a matrix serves the *same* traffic.

Determinism is the design constraint.  Every plan is closed-loop: every
submit lands while the background loops are stopped, so admission-control
outcomes (served, shed, degraded, cold start) are a pure function of
submission order, and ``flush()`` barriers serve the backlog
synchronously.  Every plan ends in a barrier.  Rankings do not depend on
batching or placement, so a plan's record is the same on every host; the
serving ledger (``perf/run.py``) is where serving time is measured.

Scenario kinds and their parameters (defaults in parentheses):

``steady_state``
    Round-robin over held-out users with full histories.  ``requests``
    (24).
``cold_start``
    Histories truncated to ``prefix_len`` (2) items, every
    ``1/empty_fraction`` (0.25) request fully emptied — the cluster's
    cold-start lane and the fallback's popularity ranking carry those.
    ``requests`` (24).
``long_history``
    The users with the longest histories, longest first — the padding /
    bucketing stress case.  ``requests`` (16).
``session_refresh``
    ``sessions`` (6) users each re-requesting ``refresh`` (4) times
    under one session key, one flush barrier per round — the affinity +
    prefix-cache case (later rounds hit the prefix cache).
``burst_overload``
    ``requests`` (36) back-to-back submits against
    ``max_backlog`` (2) per worker.  With ``fallback`` (true) the
    overflow degrades to retrieval; without it, it sheds.
``catalog_churn``
    Single service, LC-Rec only (needs the RQ-VAE): one
    :meth:`repro.core.LiveCatalog.ingest` every ``ingest_every`` (6)
    requests, interleaved with decodes via flush barriers.  After the
    run, the record's ``new_item_in_tier_rate`` probes the client's
    fallback tier with each ingested id — 1.0 iff the fallback follows
    the catalog (it is the catalog, which proxies the current version's
    tier; a version-0 tier does not know the ids).  ``requests`` (24).
``mixed_fleet``
    Every configured backend behind one :class:`ServingCluster` (the
    cell's backend on worker 0, the rest cycling), affinity-routed.
    ``requests`` (24).
``intention_traffic``
    Sequential submits with every ``intention_every`` (2)-th request an
    intention query (``submit_intention`` with deterministic free text
    anchored on the user's last item).  Language engines only — other
    backends record an unsupported cell.  ``requests`` (16).
``instruction_traffic``
    Every request an already-rendered instruction (``submit_instruction``)
    paraphrasing the sequential task from the last ``history_tail`` (5)
    items.  Language engines only.  ``requests`` (16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .config import ExperimentConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench import BenchScale
    from ..core.chat import SequentialDataset  # noqa: F401
    from .config import ExperimentConfig, ScenarioSpec

__all__ = [
    "BarrierEvent",
    "IngestEvent",
    "ScenarioPlan",
    "SubmitEvent",
    "build_plan",
    "known_scenarios",
    "validate_scenario",
]


@dataclass(frozen=True)
class SubmitEvent:
    """One recommendation request: who asks, with what history, and the
    held-out target (``None`` when the request has no quality label).

    ``kind`` selects the client surface: ``"seq"`` submits the history,
    ``"intention"``/``"instruction"`` submit ``text`` through
    ``submit_intention``/``submit_instruction`` (language engines only —
    the plan carries ``requires=("language",)`` in that case)."""

    session: str
    history: tuple[int, ...]
    target: int | None
    kind: str = "seq"
    text: str | None = None


@dataclass(frozen=True)
class BarrierEvent:
    """A synchronisation point: the runner calls ``flush()`` here, serving
    everything queued so far, so events after the barrier observe the
    effects of events before it."""


@dataclass(frozen=True)
class IngestEvent:
    """One catalog ingest.  The runner draws the embedding from the
    cell's seeded RNG; ``item_id`` is the id the item *will* receive
    (catalog ids are dense, so the plan can reference it in later
    submits before the item exists)."""

    item_id: int


@dataclass(frozen=True)
class ScenarioPlan:
    """A scenario compiled against one dataset: events + serving wiring."""

    kind: str
    label: str
    events: tuple
    client: str = "cluster"  # "service" | "cluster"
    num_workers: int = 1
    max_backlog: int | None = None
    use_fallback: bool = False
    prefix_cache: bool = False
    requires: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)

    @property
    def num_submits(self) -> int:
        return sum(1 for event in self.events if isinstance(event, SubmitEvent))


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _eval_pairs(dataset, scale: "BenchScale") -> list[tuple[tuple[int, ...], int]]:
    """The held-out (history, target) pool, bounded by the scale."""
    limit = min(scale.max_eval_users, len(dataset.split.test_targets))
    pairs = [
        (tuple(int(i) for i in history), int(target))
        for history, target in zip(
            dataset.split.test_histories[:limit], dataset.split.test_targets[:limit]
        )
    ]
    if not pairs:
        raise ValueError("dataset has no held-out users to build scenarios from")
    return pairs


def _param(spec: "ScenarioSpec", key: str):
    """A scenario parameter, its registered default when the spec omits it."""
    return spec.params.get(key, _SCENARIOS[spec.kind][1][key])


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _plan_steady_state(dataset, scale, config, spec) -> ScenarioPlan:
    pairs = _eval_pairs(dataset, scale)
    requests = _param(spec, "requests")
    events = tuple(
        SubmitEvent(f"user:{i % len(pairs)}", *pairs[i % len(pairs)])
        for i in range(requests)
    ) + (BarrierEvent(),)
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=events,
        num_workers=config.num_workers,
    )


def _plan_cold_start(dataset, scale, config, spec) -> ScenarioPlan:
    pairs = _eval_pairs(dataset, scale)
    requests = _param(spec, "requests")
    prefix_len = _param(spec, "prefix_len")
    empty_fraction = _param(spec, "empty_fraction")
    stride = int(round(1.0 / empty_fraction)) if empty_fraction > 0 else 0
    events = []
    empty = 0
    for i in range(requests):
        history, target = pairs[i % len(pairs)]
        # prefix_len 0 empties every history (``history[-0:]`` would keep it whole).
        if not prefix_len or (stride and i % stride == 0):
            history, empty = (), empty + 1
        else:
            history = history[-prefix_len:]
        events.append(SubmitEvent(f"user:{i % len(pairs)}", history, target))
    events.append(BarrierEvent())
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=tuple(events),
        num_workers=config.num_workers,
        use_fallback=True,
        extra={"empty_histories": empty, "prefix_len": prefix_len},
    )


def _plan_long_history(dataset, scale, config, spec) -> ScenarioPlan:
    pairs = _eval_pairs(dataset, scale)
    requests = _param(spec, "requests")
    # Longest histories first; ties keep dataset order (stable sort).
    ranked = sorted(range(len(pairs)), key=lambda i: -len(pairs[i][0]))
    picks = [ranked[i % len(ranked)] for i in range(requests)]
    events = tuple(SubmitEvent(f"user:{i}", *pairs[i]) for i in picks) + (BarrierEvent(),)
    lengths = [len(pairs[i][0]) for i in picks]
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=events,
        num_workers=config.num_workers,
        extra={"max_history_len": max(lengths), "min_history_len": min(lengths)},
    )


def _plan_session_refresh(dataset, scale, config, spec) -> ScenarioPlan:
    pairs = _eval_pairs(dataset, scale)
    sessions = min(_param(spec, "sessions"), len(pairs))
    refresh = _param(spec, "refresh")
    # One barrier per round: a round's prompts are cached before the next asks.
    round_events = tuple(SubmitEvent(f"user:{s}", *pairs[s]) for s in range(sessions))
    events = (round_events + (BarrierEvent(),)) * refresh
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=events,
        num_workers=config.num_workers,
        prefix_cache=True,
        extra={"sessions": sessions, "refresh": refresh},
    )


def _plan_burst_overload(dataset, scale, config, spec) -> ScenarioPlan:
    pairs = _eval_pairs(dataset, scale)
    requests = _param(spec, "requests")
    max_backlog = _param(spec, "max_backlog")
    use_fallback = _param(spec, "fallback")
    events = tuple(
        SubmitEvent(f"user:{i % len(pairs)}", *pairs[i % len(pairs)])
        for i in range(requests)
    ) + (BarrierEvent(),)
    capacity = config.num_workers * max_backlog
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=events,
        num_workers=config.num_workers,
        max_backlog=max_backlog,
        use_fallback=use_fallback,
        extra={"backlog_capacity": capacity},
    )


def _plan_catalog_churn(dataset, scale, config, spec) -> ScenarioPlan:
    pairs = _eval_pairs(dataset, scale)
    requests = _param(spec, "requests")
    ingest_every = _param(spec, "ingest_every")
    events: list = []
    ingested: list[int] = []
    next_id = dataset.num_items  # catalog ids are dense: ingest k → num_items + k
    for i in range(requests):
        if i and i % ingest_every == 0:
            events.append(BarrierEvent())
            events.append(IngestEvent(item_id=next_id))
            ingested.append(next_id)
            next_id += 1
        history, target = pairs[i % len(pairs)]
        events.append(SubmitEvent(f"user:{i % len(pairs)}", history, target))
    events.append(BarrierEvent())
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=tuple(events),
        client="service",
        use_fallback=True,
        requires=("rqvae",),
        extra={"ingested_ids": ingested, "ingest_every": ingest_every},
    )


def _plan_intention_traffic(dataset, scale, config, spec) -> ScenarioPlan:
    """Sequential submits with every ``intention_every``-th request an
    intention query — the Fig. 3-style free-text path.  Intention events
    carry no quality target (there is no held-out answer to a free-text
    ask), so ``quality.evaluated`` counts only the seq submits."""
    pairs = _eval_pairs(dataset, scale)
    requests = _param(spec, "requests")
    intention_every = _param(spec, "intention_every")
    events = []
    intentions = 0
    for i in range(requests):
        history, target = pairs[i % len(pairs)]
        session = f"user:{i % len(pairs)}"
        if i % intention_every == 0:
            anchor = history[-1] if history else target
            events.append(
                SubmitEvent(
                    session,
                    (),
                    None,
                    kind="intention",
                    text=f"something that pairs well with item {anchor}",
                )
            )
            intentions += 1
        else:
            events.append(SubmitEvent(session, history, target))
    events.append(BarrierEvent())
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=tuple(events),
        num_workers=config.num_workers,
        requires=("language",),
        extra={"intention_requests": intentions},
    )


def _plan_instruction_traffic(dataset, scale, config, spec) -> ScenarioPlan:
    """Every request an already-rendered free-form instruction built from
    the user's history.  Targets are kept: the instruction paraphrases
    the sequential task, so the quality block stays meaningful (if
    template-shifted)."""
    pairs = _eval_pairs(dataset, scale)
    requests = _param(spec, "requests")
    tail = _param(spec, "history_tail")
    events = []
    for i in range(requests):
        history, target = pairs[i % len(pairs)]
        recent = ", ".join(str(item) for item in history[-tail:])
        events.append(
            SubmitEvent(
                f"user:{i % len(pairs)}",
                history,
                target,
                kind="instruction",
                text=f"The user recently interacted with items {recent}. "
                "Predict the next item they will interact with.",
            )
        )
    events.append(BarrierEvent())
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=tuple(events),
        num_workers=config.num_workers,
        requires=("language",),
        extra={"history_tail": tail},
    )


def _plan_mixed_fleet(dataset, scale, config, spec) -> ScenarioPlan:
    pairs = _eval_pairs(dataset, scale)
    requests = _param(spec, "requests")
    events = tuple(
        SubmitEvent(f"user:{i % len(pairs)}", *pairs[i % len(pairs)])
        for i in range(requests)
    ) + (BarrierEvent(),)
    fleet = max(len(config.backends), 2)
    return ScenarioPlan(
        kind=spec.kind,
        label=spec.label,
        events=events,
        num_workers=fleet,
        requires=("fleet",),
        extra={"fleet_size": fleet},
    )


_SCENARIOS = {
    "steady_state": (_plan_steady_state, {"requests": 24}),
    "cold_start": (
        _plan_cold_start,
        {"requests": 24, "prefix_len": 2, "empty_fraction": 0.25},
    ),
    "long_history": (_plan_long_history, {"requests": 16}),
    "session_refresh": (_plan_session_refresh, {"sessions": 6, "refresh": 4}),
    "burst_overload": (
        _plan_burst_overload,
        {"requests": 36, "max_backlog": 2, "fallback": True},
    ),
    "catalog_churn": (_plan_catalog_churn, {"requests": 24, "ingest_every": 6}),
    "mixed_fleet": (_plan_mixed_fleet, {"requests": 24}),
    "intention_traffic": (
        _plan_intention_traffic,
        {"requests": 16, "intention_every": 2},
    ),
    "instruction_traffic": (
        _plan_instruction_traffic,
        {"requests": 16, "history_tail": 5},
    ),
}


def known_scenarios() -> dict[str, dict]:
    """Scenario kind → default parameters (the registry, read-only)."""
    return {kind: dict(defaults) for kind, (_, defaults) in _SCENARIOS.items()}


def validate_scenario(kind: str, params: Mapping, where: str) -> None:
    """Reject unknown kinds and unknown, ill-typed or out-of-range parameters.

    A parameter takes its default's type: bool defaults are flags, int
    defaults are counts (at least 1; ``prefix_len`` at least 0), float
    defaults are fractions in [0, 1].
    """
    if kind not in _SCENARIOS:
        raise ExperimentConfigError(
            f"{where}: unknown scenario kind {kind!r}; one of {sorted(_SCENARIOS)}"
        )
    _, defaults = _SCENARIOS[kind]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ExperimentConfigError(
            f"{where}: unknown parameters {sorted(unknown)} for scenario "
            f"{kind!r}; allowed: {sorted(defaults)}"
        )
    for key, value in params.items():
        default = defaults[key]
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ExperimentConfigError(
                    f"{where}: parameter {key!r} must be a bool, got {value!r}"
                )
        elif isinstance(default, int):
            minimum = 0 if key == "prefix_len" else 1
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ExperimentConfigError(
                    f"{where}: parameter {key!r} must be an int >= {minimum}, got {value!r}"
                )
        elif (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not 0.0 <= value <= 1.0
        ):
            raise ExperimentConfigError(
                f"{where}: parameter {key!r} must be a fraction in [0, 1], got {value!r}"
            )


def build_plan(
    dataset,
    scale: "BenchScale",
    config: "ExperimentConfig",
    spec: "ScenarioSpec",
) -> ScenarioPlan:
    """Compile one scenario spec into its deterministic event plan."""
    builder, _ = _SCENARIOS[spec.kind]
    return builder(dataset, scale, config, spec)
