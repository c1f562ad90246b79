"""Config-driven experiment harness: one declaration → a reproducible
(scenario × backend) matrix of quality + serving measurements.

A serving experiment is one skeleton — build a model, shape some traffic,
drive the serving client, assert, report — factored into three pieces:

* :class:`ExperimentConfig` (``config``) — the declarative input: seeds,
  backends, scenarios, metric/cutoff lists, scale, expectations.  Loads
  from dicts or JSON files.
* the scenario matrix (``scenarios``) — deterministic workload
  generators (cold-start, long-history, session-refresh, catalog-churn,
  burst-overload, mixed-fleet, …) compiled into event plans any backend
  can replay.
* :class:`ExperimentRunner` (``runner``) — builds each backend once,
  runs every cell through the one :class:`repro.serving.RecommendationClient`
  surface, and emits one schema'd JSON record per cell via
  :func:`repro.bench.report_json`.

Same config + same seed → identical records: every cell runs
closed-loop, and no record holds a wall-clock number (serving time is
the serving ledger's, ``perf/run.py``).  Run from the CLI with
``python -m repro experiment run <config.json>``, or in code::

    from repro.experiments import run_experiment

    run_experiment({
        "name": "smoke",
        "scale": "tiny",
        "backends": ["lcrec", "tiger"],
        "scenarios": ["steady_state", {"kind": "burst_overload", "fallback": False}],
    })

``docs/experiments.md`` is the full reference.
"""

from .config import (
    BackendSpec,
    Expectation,
    ExperimentConfig,
    ExperimentConfigError,
    ScenarioSpec,
    cell_name,
    ordered_cells,
)
from .runner import (
    ExperimentError,
    ExperimentRunner,
    PopularityFallback,
    known_backends,
    run_experiment,
)
from .scenarios import (
    BarrierEvent,
    IngestEvent,
    ScenarioPlan,
    SubmitEvent,
    build_plan,
    known_scenarios,
)

__all__ = [
    "BackendSpec",
    "BarrierEvent",
    "Expectation",
    "ExperimentConfig",
    "ExperimentConfigError",
    "ExperimentError",
    "ExperimentRunner",
    "IngestEvent",
    "PopularityFallback",
    "ScenarioPlan",
    "ScenarioSpec",
    "SubmitEvent",
    "build_plan",
    "cell_name",
    "known_backends",
    "known_scenarios",
    "ordered_cells",
    "run_experiment",
]
