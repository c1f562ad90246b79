"""The experiment runner: config → backends → cells → JSON records.

:class:`ExperimentRunner` executes the full (scenario × backend) matrix
of an :class:`~repro.experiments.ExperimentConfig`.  Each *cell* builds
the scenario's serving topology (a :class:`repro.serving.RecommendationService`
or :class:`repro.serving.ServingCluster` over the backend's engine),
replays the scenario's deterministic event plan through the one
:class:`repro.serving.RecommendationClient` surface, and distils the
outcome into one schema'd record: admission counters (served / shed /
degraded / cold-start), quality metrics over the held-out targets the
plan carried, scenario-specific extras and expectation outcomes.  No
record holds a wall-clock number: serving time is measured by the
serving ledger (``perf/run.py``), not here.

Records are written through :func:`repro.bench.report_json`, so an
experiment run lands in ``benchmark_results/`` with the payload shape
CI validates — one ``results`` entry per cell.

Reproducibility contract: two runs of the same config at the same seed
produce identical records.  Every cell submits with the background loops
stopped and serves at the plan's flush barriers, so admission outcomes
are a pure function of submission order, and rankings do not depend on
batching or placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..bench import bench_scale, report_json, scaled_dataset
from ..bench.runners import build_lcrec_model
from ..eval.metrics import hit_ratio_at_k, ndcg_at_k
from ..eval.popularity import item_popularity
from ..serving import (
    LCRecEngine,
    Overloaded,
    P5CIDEngine,
    PrefixKVCache,
    RecommendationService,
    ServingCluster,
    TIGEREngine,
)
from .config import (
    ExperimentConfig,
    ExperimentConfigError,
    cell_name,
    ordered_cells,
)
from .scenarios import (
    BarrierEvent,
    IngestEvent,
    ScenarioPlan,
    SubmitEvent,
    build_plan,
)

__all__ = [
    "ExperimentError",
    "ExperimentRunner",
    "PopularityFallback",
    "known_backends",
    "run_experiment",
    "validate_backend",
]

_RESULT_TIMEOUT_S = 300.0
_CACHE_ENTRIES = 32


class ExperimentError(RuntimeError):
    """A finished run violated its declared expectations."""


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
# Parameter name → expected type.  ``epochs``/``dim`` reach the model builder.
_BACKEND_PARAMS = {
    "lcrec": {},
    "tiger": {"epochs": int, "dim": int},
    "p5cid": {"epochs": int, "dim": int},
}


def known_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKEND_PARAMS))


def validate_backend(name: str, params: Mapping, where: str) -> None:
    if name not in _BACKEND_PARAMS:
        raise ExperimentConfigError(
            f"{where}: unknown backend {name!r}; one of {sorted(_BACKEND_PARAMS)}"
        )
    allowed = _BACKEND_PARAMS[name]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ExperimentConfigError(
            f"{where}: unknown parameters {sorted(unknown)} for backend "
            f"{name!r}; allowed: {sorted(allowed) or '(none)'}"
        )
    for key, value in params.items():
        expected = allowed[key]
        if expected is int and (not isinstance(value, int) or isinstance(value, bool)):
            raise ExperimentConfigError(
                f"{where}: parameter {key!r} must be an int, got {value!r}"
            )


class PopularityFallback:
    """A vector-free :class:`repro.serving.FallbackRecommender`.

    Backends without item embeddings (TIGER, P5-CID) cannot stand a
    retrieval tier, but the degraded/cold-start lanes still need *some*
    deterministic ranking — this one serves training popularity order,
    history items excluded.
    """

    def __init__(self, dataset):
        counts = item_popularity(dataset.split.train_sequences, dataset.num_items)
        self.order = np.lexsort((np.arange(len(counts)), -counts))

    def recommend(self, history: Sequence[int], top_k: int = 10) -> list[int]:
        seen = {int(item) for item in history}
        ranked: list[int] = []
        for item in self.order:
            if int(item) not in seen:
                ranked.append(int(item))
                if len(ranked) == top_k:
                    break
        return ranked


@dataclass
class _BackendRuntime:
    """One built backend: model + engine/fallback factories."""

    name: str
    model: object
    dataset: object
    supports_language: bool
    _fallback: object = field(default=None, repr=False)

    def make_engine(self, prefix_cache: bool):
        cache = PrefixKVCache(max_entries=_CACHE_ENTRIES) if prefix_cache else None
        if self.name == "lcrec":
            return LCRecEngine(self.model, prefix_cache=cache if prefix_cache else False)
        if self.name == "p5cid":
            return P5CIDEngine(self.model, prefix_cache=cache)
        return TIGEREngine(self.model)

    def make_fallback(self):
        if self._fallback is None:
            if self.name == "lcrec":
                from ..retrieval import RetrievalRecommender

                self._fallback = RetrievalRecommender.from_lcrec(self.model)
            else:
                self._fallback = PopularityFallback(self.dataset)
        return self._fallback

    @property
    def has_rqvae(self) -> bool:
        return getattr(self.model, "rqvae", None) is not None


def _build_backend(spec, dataset, scale, seed: int, model=None) -> _BackendRuntime:
    if model is None:
        if spec.name == "lcrec":
            model = build_lcrec_model(dataset, scale, tasks=("seq",), seed=seed)
        elif spec.name == "tiger":
            from ..baselines.tiger import TIGER, TIGERConfig
            from ..core import build_random_index_set

            index_set = build_random_index_set(
                dataset.num_items, 3, 8, np.random.default_rng(seed)
            )
            model = TIGER(
                index_set,
                TIGERConfig(
                    dim=spec.params.get("dim", 48),
                    epochs=spec.params.get("epochs", scale.epochs(6, minimum=2)),
                    seed=seed,
                ),
            )
            model.fit(dataset)
        else:  # p5cid — spec names are validated at config load
            from ..baselines.p5cid import P5CID, P5CIDConfig

            model = P5CID(
                dataset,
                P5CIDConfig(
                    dim=spec.params.get("dim", 48),
                    epochs=spec.params.get("epochs", scale.epochs(6, minimum=2)),
                    seed=seed,
                ),
            )
            model.fit(dataset)
    return _BackendRuntime(
        name=spec.name,
        model=model,
        dataset=dataset,
        supports_language=spec.name == "lcrec",
    )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Execute one :class:`ExperimentConfig` and emit its JSON record.

    ``dataset`` and ``models`` (backend name → already-built model)
    inject pre-built state — tests reuse session fixtures instead of
    retraining, and the records stay honest because builders are pure
    functions of (config, seed) anyway.  ``write=False`` skips the
    ``benchmark_results/`` file and just returns the payload.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        dataset=None,
        models: Mapping[str, object] | None = None,
        write: bool = True,
    ):
        self.config = config
        self.scale = bench_scale(config.scale)
        if dataset is None:
            dataset = scaled_dataset(config.preset, scale=self.scale)
        self.dataset = dataset
        self._injected = dict(models or {})
        self.write = write
        self._runtimes: dict[str, _BackendRuntime] = {}

    # -- backends ------------------------------------------------------
    def _runtime(self, spec) -> _BackendRuntime:
        if spec.name not in self._runtimes:
            self._runtimes[spec.name] = _build_backend(
                spec,
                self.dataset,
                self.scale,
                self.config.seed,
                model=self._injected.get(spec.name),
            )
        return self._runtimes[spec.name]

    # -- cell plumbing -------------------------------------------------
    def _fleet_order(self, plan: ScenarioPlan, cell_runtime):
        """Runtimes behind this cell's cluster, worker 0 first."""
        if plan.kind != "mixed_fleet":
            return [cell_runtime]
        others = [
            self._runtime(spec) for spec in self.config.backends if spec.name != cell_runtime.name
        ]
        return [cell_runtime] + (others or [cell_runtime])

    def _build_client(self, plan: ScenarioPlan, runtime: _BackendRuntime):
        """The scenario's client plus per-cell context for the record."""
        fallback = runtime.make_fallback() if plan.use_fallback else None
        context: dict = {}
        if plan.client == "service":
            if plan.kind == "catalog_churn":
                catalog = runtime.model.live_catalog(retrieval=True)
                engine = runtime.make_engine(plan.prefix_cache)
                engine.attach_catalog(catalog)
                # The catalog is the tier: it proxies the current version,
                # and the record's candidate rate shows the fallback followed.
                fallback = catalog
                context["catalog"] = catalog
            else:
                engine = runtime.make_engine(plan.prefix_cache)
            client = RecommendationService(engine, fallback=fallback)
        else:
            fleet = self._fleet_order(plan, runtime)
            workers = plan.num_workers
            cursor = iter(range(10**9))

            def engine_factory():
                return fleet[next(cursor) % len(fleet)].make_engine(plan.prefix_cache)

            client = ServingCluster(
                engine_factory,
                num_workers=workers,
                max_backlog=plan.max_backlog,
                fallback=fallback,
            )
            if plan.kind == "mixed_fleet":
                context["fleet"] = [fleet[worker % len(fleet)].name for worker in range(workers)]
        return client, context

    # -- event replay --------------------------------------------------
    def _replay(self, plan: ScenarioPlan, client, rng) -> list[dict]:
        """Run the plan's events with the background loops stopped.

        Admission is a pure function of submission order, and every
        barrier serves the backlog synchronously; returns one outcome
        per submit.
        """
        submitted: list[tuple[SubmitEvent, object]] = []
        for event in plan.events:
            if isinstance(event, SubmitEvent):
                submitted.append((event, self._submit(client, event)))
            elif isinstance(event, BarrierEvent):
                client.flush()
            elif isinstance(event, IngestEvent):
                item = client.ingest_item(embedding=rng.normal(size=client_embedding_dim(client)))
                if item.item_id != event.item_id:
                    raise RuntimeError(
                        f"planned ingest id {event.item_id} but catalog assigned "
                        f"{item.item_id}"
                    )

        outcomes = []
        for event, handle in submitted:
            try:
                ranking = handle.result(timeout=_RESULT_TIMEOUT_S)
            except Overloaded:
                ranking = None  # shed
            outcomes.append(
                {"event": event, "ranking": ranking, "degraded_reason": handle.degraded_reason}
            )
        return outcomes

    def _submit(self, client, event: SubmitEvent):
        if event.kind == "intention":
            return client.submit_intention(
                event.text, top_k=self.config.top_k, session_key=event.session
            )
        if event.kind == "instruction":
            return client.submit_instruction(
                event.text, top_k=self.config.top_k, session_key=event.session
            )
        return client.submit(
            list(event.history),
            top_k=self.config.top_k,
            session_key=event.session,
        )

    # -- metrics -------------------------------------------------------
    def _quality(self, outcomes: list[dict]) -> dict:
        rankings, targets = [], []
        for outcome in outcomes:
            event = outcome["event"]
            if outcome["ranking"] is not None and event.target is not None:
                rankings.append(outcome["ranking"])
                targets.append(event.target)
        quality: dict = {"evaluated": len(rankings)}
        for key in self.config.metric_keys():
            metric, cutoff = key.split("@")
            fn = hit_ratio_at_k if metric == "HR" else ndcg_at_k
            quality[key] = (
                round(fn(rankings, targets, int(cutoff)), 6) if rankings else 0.0
            )
        return quality

    def _churn_extras(self, plan: ScenarioPlan, client, context: dict) -> dict:
        """Post-run bookkeeping proving ingests reached every tier."""
        ingested = plan.extra.get("ingested_ids", [])
        catalog = context.get("catalog")
        extras: dict = {"catalog_items": catalog.num_items if catalog else None}
        if not ingested:
            extras["new_item_in_tier_rate"] = None
            return extras
        # The tier can build a profile from the new item iff the client's
        # fallback follows the catalog — a version-0 tier ignores unknown
        # ids entirely (profile None → popularity).
        fallback = getattr(client, "fallback", None)
        hits = sum(
            int(
                item_id < getattr(fallback, "num_items", 0)
                and fallback.profile([item_id]) is not None
            )
            for item_id in ingested
        )
        extras["new_item_in_tier_rate"] = round(hits / len(ingested), 6)
        return extras

    # -- one cell ------------------------------------------------------
    def _run_cell(self, spec, backend_spec, rng) -> dict:
        runtime = self._runtime(backend_spec)
        plan = build_plan(self.dataset, self.scale, self.config, spec)
        base = {
            "name": cell_name(spec, backend_spec),
            "scenario": spec.label,
            "scenario_kind": spec.kind,
            "backend": backend_spec.name,
            "seed": self.config.seed,
        }
        if "rqvae" in plan.requires and not runtime.has_rqvae:
            return {
                **base,
                "supported": False,
                "reason": f"{spec.kind} needs an RQ-VAE-indexed backend, "
                f"{backend_spec.name} has none",
            }
        if "language" in plan.requires and not runtime.supports_language:
            return {
                **base,
                "supported": False,
                "reason": f"{spec.kind} needs intention/instruction encoding, "
                f"{backend_spec.name} has none",
            }

        client, context = self._build_client(plan, runtime)
        outcomes = self._replay(plan, client, rng)

        served = sum(1 for o in outcomes if o["ranking"] is not None)
        shed = sum(1 for o in outcomes if o["ranking"] is None)
        cold = sum(
            1 for o in outcomes if o.get("degraded_reason") == "cold_start"
        )
        degraded = sum(
            1
            for o in outcomes
            if o.get("degraded_reason") not in (None, "cold_start")
        )
        record = {
            **base,
            "supported": True,
            "client": plan.client,
            "num_workers": plan.num_workers if plan.client == "cluster" else 1,
            "requests": len(outcomes),
            "served": served,
            "shed": shed,
            "degraded": degraded,
            "cold_start": cold,
            "quality": self._quality(outcomes),
            "extra": {
                key: value
                for key, value in plan.extra.items()
                if key != "ingested_ids"
            },
        }
        if plan.kind == "mixed_fleet":
            record["extra"]["fleet"] = context.get("fleet")
        if plan.kind == "catalog_churn":
            record["extra"].update(self._churn_extras(plan, client, context))
            record["extra"]["ingested"] = len(plan.extra.get("ingested_ids", []))
        checked, failed = [], []
        for expectation in spec.expect:
            holds, observed = expectation.check(record)
            checked.append(
                {**expectation.to_dict(), "observed": observed, "holds": holds}
            )
            if not holds:
                failed.append(
                    f"{record['name']}: {expectation.metric} {expectation.op} "
                    f"{expectation.value} (observed {observed!r})"
                )
        record["expectations"] = {"checked": checked, "failed": failed}
        return record

    # -- the matrix ----------------------------------------------------
    def run(self) -> dict:
        """Execute every cell; returns ``{records, failed, path}``.

        Raises :class:`ExperimentError` after writing the record file if
        any cell's expectations failed — results land on disk either
        way, so a red run is still inspectable.
        """
        records, failed = [], []
        for scenario_index, (spec, backend_spec) in enumerate(ordered_cells(self.config)):
            rng = np.random.default_rng([max(self.config.seed, 0), scenario_index])
            record = self._run_cell(spec, backend_spec, rng)
            records.append(record)
            failed.extend(record.get("expectations", {}).get("failed", []))
        path = None
        if self.write:
            path = report_json(
                f"experiment_{self.config.name}",
                config=self.config.to_dict(),
                results=records,
            )
        if failed:
            raise ExperimentError(
                "experiment expectations failed:\n  " + "\n  ".join(failed)
            )
        return {"records": records, "failed": failed, "path": path}


def run_experiment(
    config: ExperimentConfig | Mapping,
    dataset=None,
    models: Mapping[str, object] | None = None,
    write: bool = True,
) -> dict:
    """One-call convenience: dict/config in, records out."""
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_dict(config)
    return ExperimentRunner(config, dataset=dataset, models=models, write=write).run()


def client_embedding_dim(client) -> int:
    """The input dimension catalog ingests must match for this client."""
    catalog = None
    engine = getattr(client, "engine", None)
    if engine is not None:
        catalog = getattr(engine, "catalog", None)
    if catalog is None:
        raise RuntimeError("client has no live catalog attached; cannot ingest")
    return int(catalog.rqvae.config.input_dim)
