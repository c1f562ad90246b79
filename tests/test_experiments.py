"""The experiment harness: config validation, scenario shapes, matrix
runs, record determinism, and retrieval lanes that follow the live catalog.

The expensive piece — a 2-backend × 3-scenario matrix over the session
fixtures — runs once (module scope) and every record-shape assertion
reads from it.
"""

import json

import numpy as np
import pytest

from repro.baselines.tiger import TIGER, TIGERConfig
from repro.bench import bench_scale
from repro.core import build_random_index_set
from repro.experiments import (
    BarrierEvent,
    Expectation,
    ExperimentConfig,
    ExperimentConfigError,
    ExperimentError,
    ExperimentRunner,
    IngestEvent,
    PopularityFallback,
    SubmitEvent,
    build_plan,
    known_backends,
    known_scenarios,
    run_experiment,
)
from repro.retrieval import RetrievalRecommender
from repro.serving import LCRecEngine, RecommendationService, ServingCluster


def minimal_config(**overrides):
    raw = {
        "name": "unit",
        "scale": "tiny",
        "backends": ["lcrec"],
        "scenarios": ["steady_state"],
        **overrides,
    }
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="module")
def tiny_tiger(tiny_dataset):
    index_set = build_random_index_set(
        tiny_dataset.num_items, 3, 8, np.random.default_rng(0)
    )
    model = TIGER(index_set, TIGERConfig(dim=32, epochs=2, seed=0))
    model.fit(tiny_dataset)
    return model


MATRIX_RAW = {
    "name": "matrix",
    "scale": "tiny",
    "seed": 7,
    "num_workers": 2,
    "backends": ["lcrec", "tiger"],
    "scenarios": [
        {"kind": "steady_state", "requests": 6},
        {
            "kind": "burst_overload",
            "requests": 10,
            "max_backlog": 1,
            "expect": [{"metric": "degraded", "op": "eq", "value": 8}],
        },
        {
            "kind": "catalog_churn",
            "requests": 6,
            "ingest_every": 3,
            "expect": [
                {"metric": "extra.new_item_in_tier_rate", "op": "eq", "value": 1.0}
            ],
        },
    ],
}


@pytest.fixture(scope="module")
def matrix_result(tiny_dataset, tiny_lcrec, tiny_tiger):
    return run_experiment(
        MATRIX_RAW,
        dataset=tiny_dataset,
        models={"lcrec": tiny_lcrec, "tiger": tiny_tiger},
        write=False,
    )


# ----------------------------------------------------------------------
# Config loading and validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_minimal_roundtrip(self):
        config = minimal_config()
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_string_and_dict_scenarios_equivalent(self):
        a = minimal_config(scenarios=["cold_start"])
        b = minimal_config(scenarios=[{"kind": "cold_start"}])
        assert a.scenarios == b.scenarios

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            ({"backends": ["lcrec"]}, "missing required key"),
            ({"name": "x", "backends": [], "scenarios": ["steady_state"]}, "at least one"),
            ({"name": "x", "backends": ["nope"], "scenarios": ["steady_state"]}, "unknown backend"),
            ({"name": "x", "backends": ["lcrec"], "scenarios": ["nope"]}, "unknown scenario"),
            (
                {
                    "name": "x",
                    "backends": ["lcrec"],
                    "scenarios": [{"kind": "steady_state", "bogus": 1}],
                },
                "unknown parameters",
            ),
            (
                {
                    "name": "x",
                    "backends": ["lcrec"],
                    "scenarios": ["steady_state"],
                    "metrics": ["mrr"],
                },
                "unknown metric",
            ),
            (
                {"name": "x", "backends": ["lcrec"], "scenarios": ["steady_state", "steady_state"]},
                "labels must be unique",
            ),
            (
                {"name": "x", "backends": ["lcrec", "lcrec"], "scenarios": ["steady_state"]},
                "must be unique",
            ),
            (
                {"name": "x", "backends": ["lcrec"], "scenarios": ["steady_state"], "typo_key": 1},
                "unknown config keys",
            ),
            (
                {"name": "x", "backends": ["lcrec"], "scenarios": ["steady_state"], "cutoffs": [0]},
                "positive",
            ),
            (
                {"name": "x", "backends": ["lcrec"], "scenarios": ["steady_state"], "mode": "x"},
                "unknown config keys",
            ),
            (
                {
                    "name": "x",
                    "backends": ["lcrec"],
                    "scenarios": [
                        {
                            "kind": "steady_state",
                            "expect": [{"metric": "shed", "op": "~", "value": 0}],
                        }
                    ],
                },
                "op",
            ),
            (
                {
                    "name": "x",
                    "backends": ["lcrec"],
                    "scenarios": [{"kind": "steady_state", "expect": [{"metric": "shed"}]}],
                },
                "missing",
            ),
            # Deleted serving knobs: a stale config fails typed, it is not silently ignored.
            *(
                (
                    {"name": "x", "backends": ["lcrec"], "scenarios": ["steady_state"], key: value},
                    "unknown config keys",
                )
                for key, value in (
                    ("sweep", {"epochs": [1, 2]}),
                    ("batch_width", 4),
                    ("deadline_flush_ms", 10.0),
                )
            ),
            # Scenario parameters are range-checked at load, before any model is built.
            *(
                (
                    {"name": "x", "backends": ["lcrec"], "scenarios": [{"kind": kind, **params}]},
                    fragment,
                )
                for kind, params, fragment in (
                    ("cold_start", {"empty_fraction": 2}, "fraction"),
                    ("cold_start", {"empty_fraction": -0.25}, "fraction"),
                    ("cold_start", {"prefix_len": -1}, "int >= 0"),
                    ("burst_overload", {"max_backlog": 0}, "int >= 1"),
                    ("steady_state", {"requests": 2.5}, "int >= 1"),
                    ("steady_state", {"requests": 0}, "int >= 1"),
                    ("session_refresh", {"refresh": 0}, "int >= 1"),
                    ("catalog_churn", {"ingest_every": 0}, "int >= 1"),
                )
            ),
        ],
    )
    def test_invalid_configs_rejected(self, raw, fragment):
        with pytest.raises(ExperimentConfigError, match=fragment):
            ExperimentConfig.from_dict(raw)

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError, match="scale name"):
            minimal_config(scale="huge")

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MATRIX_RAW))
        config = ExperimentConfig.from_file(path)
        assert config.name == "matrix"
        assert [spec.name for spec in config.backends] == ["lcrec", "tiger"]

    def test_from_file_missing_and_bad_suffix(self, tmp_path):
        with pytest.raises(ExperimentConfigError, match="not found"):
            ExperimentConfig.from_file(tmp_path / "nope.json")
        for suffix in (".txt", ".yaml"):  # JSON is the one config format
            bad = tmp_path / f"config{suffix}"
            bad.write_text("{}")
            with pytest.raises(ExperimentConfigError, match="must be .json"):
                ExperimentConfig.from_file(bad)

    def test_example_configs_parse(self):
        config = ExperimentConfig.from_file("examples/experiments/smoke.json")
        assert len(config.backends) >= 2 and len(config.scenarios) >= 3
        ported = ExperimentConfig.from_file("examples/experiments/cluster_serving.json")
        assert any(spec.expect for spec in ported.scenarios)
        labels = [spec.label for spec in ported.scenarios]
        assert "burst_degraded" in labels and "burst_shed" in labels

    def test_metric_keys_skip_degenerate_ndcg(self):
        config = minimal_config(metrics=["hr", "ndcg"], cutoffs=[1, 5])
        assert config.metric_keys() == ["HR@1", "HR@5", "NDCG@5"]

    def test_registries(self):
        assert set(known_backends()) == {"lcrec", "tiger", "p5cid"}
        assert "catalog_churn" in known_scenarios()
        assert known_scenarios()["burst_overload"]["max_backlog"] == 2


class TestExpectation:
    def test_dotted_path_and_ops(self):
        record = {"served": 5, "quality": {"HR@5": 0.25}}
        assert Expectation("served", "ge", 5).check(record) == (True, 5)
        assert Expectation("quality.HR@5", "gt", 0.3).check(record) == (False, 0.25)

    def test_missing_path_fails(self):
        holds, observed = Expectation("extra.nope", "eq", 1).check({"extra": {}})
        assert not holds and observed is None


# ----------------------------------------------------------------------
# BenchScale programmatic selection (no more env monkeypatching)
# ----------------------------------------------------------------------
class TestBenchScale:
    def test_programmatic_name_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert bench_scale("tiny").name == "tiny"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert bench_scale().name == "tiny"
        monkeypatch.delenv("REPRO_SCALE")
        assert bench_scale().name == "small"

    def test_error_names_the_source(self, monkeypatch):
        with pytest.raises(KeyError, match="scale name"):
            bench_scale("galactic")
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(KeyError, match="REPRO_SCALE"):
            bench_scale()

    def test_config_scale_reaches_runner(self, tiny_dataset, tiny_lcrec):
        config = minimal_config(scale="tiny")
        runner = ExperimentRunner(
            config, dataset=tiny_dataset, models={"lcrec": tiny_lcrec}, write=False
        )
        assert runner.scale.name == "tiny"


# ----------------------------------------------------------------------
# Scenario generators produce the claimed traffic shapes
# ----------------------------------------------------------------------
class TestScenarioShapes:
    def plan(self, dataset, kind, **params):
        config = ExperimentConfig.from_dict(
            {
                "name": "shapes",
                "scale": "tiny",
                "num_workers": 2,
                "backends": ["lcrec", "tiger"],
                "scenarios": [{"kind": kind, **params}],
            }
        )
        return build_plan(dataset, bench_scale("tiny"), config, config.scenarios[0])

    def test_plans_are_deterministic(self, tiny_dataset):
        for kind in known_scenarios():
            config = ExperimentConfig.from_dict(
                {
                    "name": "d",
                    "scale": "tiny",
                    "backends": ["lcrec"],
                    "scenarios": [kind],
                }
            )
            spec = config.scenarios[0]
            scale = bench_scale("tiny")
            plan = build_plan(tiny_dataset, scale, config, spec)
            assert plan.events == build_plan(tiny_dataset, scale, config, spec).events
            # The runner serves only at barriers, so every plan ends in one.
            assert isinstance(plan.events[-1], BarrierEvent)

    def test_steady_state(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "steady_state", requests=7)
        *submits, barrier = plan.events
        assert len(submits) == 7 and isinstance(barrier, BarrierEvent)
        assert all(isinstance(e, SubmitEvent) and e.target is not None for e in submits)

    def test_cold_start_truncates_and_empties(self, tiny_dataset):
        plan = self.plan(
            tiny_dataset, "cold_start", requests=8, prefix_len=2, empty_fraction=0.25
        )
        submits = [e for e in plan.events if isinstance(e, SubmitEvent)]
        empty = [e for e in submits if not e.history]
        assert len(empty) == 2  # every 4th request
        assert all(len(e.history) <= 2 for e in submits)
        assert plan.use_fallback
        bare = self.plan(tiny_dataset, "cold_start", requests=4, prefix_len=0, empty_fraction=0)
        assert all(e.history == () for e in bare.events if isinstance(e, SubmitEvent))
        assert bare.extra["empty_histories"] == 4

    def test_long_history_longest_first(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "long_history", requests=5)
        lengths = [len(e.history) for e in plan.events if isinstance(e, SubmitEvent)]
        assert lengths == sorted(lengths, reverse=True)
        full = max(len(h) for h in tiny_dataset.split.test_histories)
        assert lengths[0] == full

    def test_session_refresh_repeats_sessions(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "session_refresh", sessions=3, refresh=4)
        submits = [e for e in plan.events if isinstance(e, SubmitEvent)]
        assert len(submits) == 12 and plan.prefix_cache
        by_session = {}
        for event in submits:
            by_session.setdefault(event.session, []).append(event.history)
        assert len(by_session) == 3
        assert all(len(set(histories)) == 1 for histories in by_session.values())
        # One flush barrier closes each round, so later rounds hit the prefix cache.
        barriers = [i for i, e in enumerate(plan.events) if isinstance(e, BarrierEvent)]
        assert barriers == [3, 7, 11, 15]

    def test_burst_overload_closed_loop(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "burst_overload", requests=9, max_backlog=1)
        assert plan.max_backlog == 1
        assert isinstance(plan.events[-1], BarrierEvent)
        assert plan.num_submits == 9
        assert plan.extra["backlog_capacity"] == 2  # 2 workers x backlog 1

    def test_catalog_churn_plans_dense_ids(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "catalog_churn", requests=9, ingest_every=3)
        ingests = [e for e in plan.events if isinstance(e, IngestEvent)]
        assert [e.item_id for e in ingests] == [
            tiny_dataset.num_items,
            tiny_dataset.num_items + 1,
        ]
        assert plan.client == "service"
        assert plan.requires == ("rqvae",)
        # Every ingest rides between flush barriers.
        for index, event in enumerate(plan.events):
            if isinstance(event, IngestEvent):
                assert isinstance(plan.events[index - 1], BarrierEvent)

    def test_mixed_fleet_sizes_to_backends(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "mixed_fleet", requests=4)
        assert plan.num_workers == 2 and plan.extra["fleet_size"] == 2

    def test_intention_traffic_interleaves_language_requests(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "intention_traffic", requests=8, intention_every=2)
        assert plan.requires == ("language",)
        submits = [e for e in plan.events if isinstance(e, SubmitEvent)]
        intentions = [e for e in submits if e.kind == "intention"]
        assert len(submits) == 8
        assert len(intentions) == plan.extra["intention_requests"] == 4
        for event in intentions:
            assert event.text and "pairs well with" in event.text
            assert event.history == () and event.target is None
        for event in submits:
            if event.kind == "seq":
                assert event.text is None and event.target is not None

    def test_instruction_traffic_paraphrases_histories(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "instruction_traffic", requests=6, history_tail=3)
        assert plan.requires == ("language",)
        submits = [e for e in plan.events if isinstance(e, SubmitEvent)]
        assert len(submits) == 6 and plan.extra["history_tail"] == 3
        for event in submits:
            assert event.kind == "instruction"
            assert event.target is not None  # quality stays measurable
            assert "Predict the next item" in event.text
            # The prompt names exactly the items the plan keeps.
            recent = event.history[-3:]
            assert all(str(item) in event.text for item in recent)

    def test_submit_events_default_to_sequential_kind(self, tiny_dataset):
        plan = self.plan(tiny_dataset, "steady_state", requests=3)
        submits = [e for e in plan.events if isinstance(e, SubmitEvent)]
        assert all(e.kind == "seq" and e.text is None for e in submits)


# ----------------------------------------------------------------------
# The matrix run: records, schema, determinism
# ----------------------------------------------------------------------
class TestMatrixRun:
    def test_one_record_per_cell(self, matrix_result):
        records = matrix_result["records"]
        assert [r["name"] for r in records] == [
            "steady_statexlcrec",
            "steady_statextiger",
            "burst_overloadxlcrec",
            "burst_overloadxtiger",
            "catalog_churnxlcrec",
            "catalog_churnxtiger",
        ]

    def test_supported_record_schema(self, matrix_result):
        for record in matrix_result["records"]:
            if not record["supported"]:
                continue
            # Exactly these keys: no record holds a wall-clock number.
            assert set(record) == {
                "name",
                "scenario",
                "scenario_kind",
                "backend",
                "seed",
                "supported",
                "client",
                "num_workers",
                "requests",
                "served",
                "shed",
                "degraded",
                "cold_start",
                "quality",
                "extra",
                "expectations",
            }, record["name"]
            quality = record["quality"]
            assert quality["evaluated"] == record["served"]
            for key in ("HR@5", "HR@10", "NDCG@5", "NDCG@10"):
                assert 0.0 <= quality[key] <= 1.0

    def test_unsupported_cell_is_still_a_record(self, matrix_result):
        record = next(
            r for r in matrix_result["records"] if r["name"] == "catalog_churnxtiger"
        )
        assert record["supported"] is False
        assert "RQ-VAE" in record["reason"]

    def test_burst_admission_is_exact(self, matrix_result):
        record = next(
            r for r in matrix_result["records"] if r["scenario"] == "burst_overload"
        )
        # capacity = 2 workers x backlog 1; the other 8 degrade to retrieval.
        assert record["served"] == 10
        assert record["degraded"] == 8
        assert record["shed"] == 0

    def test_churn_refresh_reached_the_fallback(self, matrix_result, tiny_dataset):
        record = next(
            r for r in matrix_result["records"] if r["name"] == "catalog_churnxlcrec"
        )
        assert record["extra"]["ingested"] == 1
        assert record["extra"]["new_item_in_tier_rate"] == 1.0
        assert (
            record["extra"]["catalog_items"]
            == tiny_dataset.num_items + record["extra"]["ingested"]
        )

    def test_expectation_outcomes_recorded(self, matrix_result):
        record = next(
            r for r in matrix_result["records"] if r["scenario"] == "burst_overload"
        )
        checked = record["expectations"]["checked"]
        assert checked and all(entry["holds"] for entry in checked)
        assert matrix_result["failed"] == []

    def test_seed_determinism_identical_records(
        self, tiny_dataset, tiny_lcrec, tiny_tiger, matrix_result
    ):
        again = run_experiment(
            MATRIX_RAW,
            dataset=tiny_dataset,
            models={"lcrec": tiny_lcrec, "tiger": tiny_tiger},
            write=False,
        )
        assert json.dumps(again["records"]) == json.dumps(matrix_result["records"])

    def test_failed_expectation_raises_but_writes(
        self, tiny_dataset, tiny_lcrec, monkeypatch, tmp_path
    ):
        from repro.bench import reporting

        monkeypatch.setattr(reporting, "benchmark_results_dir", lambda: tmp_path)
        raw = {
            "name": "red",
            "scale": "tiny",
            "backends": ["lcrec"],
            "scenarios": [
                {
                    "kind": "steady_state",
                    "requests": 2,
                    "expect": [{"metric": "served", "op": "eq", "value": -1}],
                }
            ],
        }
        with pytest.raises(ExperimentError, match="served eq -1"):
            run_experiment(raw, dataset=tiny_dataset, models={"lcrec": tiny_lcrec})
        payload = json.loads((tmp_path / "experiment_red.json").read_text())
        assert payload["bench"] == "experiment_red"
        assert not payload["results"][0]["expectations"]["checked"][0]["holds"]

    def test_written_record_matches_ci_schema(
        self, tiny_dataset, tiny_lcrec, monkeypatch, tmp_path
    ):
        from repro.bench import reporting

        monkeypatch.setattr(reporting, "benchmark_results_dir", lambda: tmp_path)
        result = run_experiment(
            {
                "name": "schema",
                "scale": "tiny",
                "backends": ["lcrec"],
                "scenarios": [{"kind": "steady_state", "requests": 2}],
            },
            dataset=tiny_dataset,
            models={"lcrec": tiny_lcrec},
        )
        payload = json.loads(result["path"].read_text())
        # The exact keys the CI validation step asserts on every record.
        for key in ("bench", "git_sha", "config", "results"):
            assert key in payload
        assert payload["results"]
        assert payload["config"]["scenarios"][0]["kind"] == "steady_state"


# ----------------------------------------------------------------------
# Language traffic end to end: lcrec serves, token-only backends gate
# ----------------------------------------------------------------------
class TestLanguageTraffic:
    @pytest.fixture(scope="class")
    def language_result(self, tiny_dataset, tiny_lcrec, tiny_tiger):
        return run_experiment(
            {
                "name": "language",
                "scale": "tiny",
                "backends": ["lcrec", "tiger"],
                "scenarios": [
                    {"kind": "intention_traffic", "requests": 6},
                    {"kind": "instruction_traffic", "requests": 4},
                ],
            },
            dataset=tiny_dataset,
            models={"lcrec": tiny_lcrec, "tiger": tiny_tiger},
            write=False,
        )

    def test_lcrec_serves_language_cells(self, language_result):
        for record in language_result["records"]:
            if record["backend"] != "lcrec":
                continue
            assert record["supported"] and record["served"] == record["requests"]

    def test_intention_requests_skip_quality(self, language_result):
        record = next(
            r
            for r in language_result["records"]
            if r["name"] == "intention_trafficxlcrec"
        )
        # Intention submits carry no target, so only the sequential half
        # of the traffic is evaluated for quality.
        assert record["quality"]["evaluated"] == record["served"] - 3
        assert record["extra"]["intention_requests"] == 3

    def test_instruction_requests_keep_quality(self, language_result):
        record = next(
            r
            for r in language_result["records"]
            if r["name"] == "instruction_trafficxlcrec"
        )
        assert record["quality"]["evaluated"] == record["served"] == 4

    def test_token_only_backends_record_unsupported(self, language_result):
        for record in language_result["records"]:
            if record["backend"] != "tiger":
                continue
            assert record["supported"] is False
            assert "intention/instruction" in record["reason"]


# ----------------------------------------------------------------------
# The fallback used by embedding-free backends
# ----------------------------------------------------------------------
class TestPopularityFallback:
    def test_deterministic_and_excludes_history(self, tiny_dataset):
        fallback = PopularityFallback(tiny_dataset)
        first = fallback.recommend([], top_k=10)
        assert fallback.recommend([], top_k=10) == first
        assert len(first) == 10 and len(set(first)) == 10
        skipped = fallback.recommend(first[:3], top_k=10)
        assert not set(skipped) & set(first[:3])


# ----------------------------------------------------------------------
# Retrieval follows ingestion: the catalog is the tier (service + cluster)
# ----------------------------------------------------------------------
def catalog_engine(model, catalog):
    engine = LCRecEngine(model, prefix_cache=False)
    engine.attach_catalog(catalog)
    return engine


class TestRetrievalRefresh:
    """A ``fallback=catalog`` answers from the current version; nothing swaps lanes."""

    def test_service_degrades_from_the_ingested_catalog(self, tiny_lcrec, tiny_dataset, rng):
        catalog = tiny_lcrec.live_catalog(retrieval=True)
        built = catalog.version.retrieval
        service = RecommendationService(
            catalog_engine(tiny_lcrec, catalog), fallback=catalog, queue_depth=1
        )
        dim = tiny_lcrec.item_embeddings.shape[1]
        ingested = service.ingest_item(embedding=rng.normal(size=dim))
        assert service.fallback is catalog
        service.submit(list(tiny_dataset.split.test_histories[0]), top_k=5)  # fills the queue
        handle = service.submit([ingested.item_id], top_k=5)
        assert handle.degraded_reason == "queue_full"
        assert handle.result() == ingested.version.retrieval.recommend([ingested.item_id], 5)
        # The built tier has no profile for the new id: it would answer popularity.
        assert built.profile([ingested.item_id]) is None
        service.flush()

    def test_cluster_degrades_from_the_ingested_catalog(self, tiny_lcrec, tiny_dataset, rng):
        catalog = tiny_lcrec.live_catalog(retrieval=True)
        cluster = ServingCluster(
            catalog_engine(tiny_lcrec, catalog), num_workers=2, max_backlog=1, fallback=catalog
        )
        dim = tiny_lcrec.item_embeddings.shape[1]
        ingested = cluster.ingest_item(embedding=rng.normal(size=dim))
        for _ in range(cluster.num_workers):  # keyless: one per worker fills the front door
            cluster.submit(list(tiny_dataset.split.test_histories[0]), top_k=5)
        handle = cluster.submit([ingested.item_id], top_k=5)
        assert handle.degraded_reason == "queue_full" and cluster.stats.degraded == 1
        assert handle.result() == ingested.version.retrieval.recommend([ingested.item_id], 5)
        cluster.flush()

    def test_ingest_leaves_every_fallback_untouched(self, tiny_lcrec, tiny_dataset, rng):
        catalog = tiny_lcrec.live_catalog(retrieval=True)
        static = catalog.version.retrieval
        custom = PopularityFallback(tiny_dataset)
        dim = tiny_lcrec.item_embeddings.shape[1]
        for fallback in (static, custom, catalog):
            service = RecommendationService(catalog_engine(tiny_lcrec, catalog), fallback=fallback)
            ingested = service.ingest_item(embedding=rng.normal(size=dim))
            assert service.fallback is fallback
            cluster = ServingCluster(
                catalog_engine(tiny_lcrec, catalog), num_workers=2, fallback=fallback
            )
            cluster.ingest_item(embedding=rng.normal(size=dim))
            assert cluster.fallback is fallback
            assert all(worker.fallback is fallback for worker in cluster.workers)
        # A static tier stays the version it was built from.
        assert static.num_items == tiny_dataset.num_items
        assert static.profile([ingested.item_id]) is None

    def test_static_tier_is_a_retrieval_recommender(self, tiny_lcrec):
        tier = RetrievalRecommender.from_lcrec(tiny_lcrec)
        assert tier.recommend([], top_k=5) == tier.recommend([], top_k=5)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCLI:
    def test_experiment_scenarios_lists_registry(self, capsys):
        from repro.__main__ import main

        assert main(["experiment", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "catalog_churn" in out and "burst_overload" in out
        assert "lcrec" in out and "tiger" in out

    def test_experiment_run_rejects_missing_config(self, capsys):
        from repro.__main__ import main

        assert main(["experiment", "run", "does_not_exist.json"]) == 2
        assert "not found" in capsys.readouterr().out
