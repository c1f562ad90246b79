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
            # Every cell reports HR and NDCG: no config key picks the families.
            (
                {
                    "name": "x",
                    "backends": ["lcrec"],
                    "scenarios": ["steady_state"],
                    "metrics": ["hr"],
                },
                "unknown config keys",
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
            # A bool is no count, and a seed is non-negative: refused at load,
            # not stored in the record or raised by numpy at the first cell.
            *(
                (
                    {"name": "x", "backends": ["lcrec"], "scenarios": ["steady_state"], key: value},
                    key,
                )
                for key, value in (("seed", True), ("seed", -1), ("num_workers", True))
            ),
            # Scenario parameters are range-checked at load, before any model is built.
            *(
                (
                    {"name": "x", "backends": ["lcrec"], "scenarios": [{"kind": kind, **params}]},
                    fragment,
                )
                for kind, params, fragment in (
                    ("burst_overload", {"max_backlog": 0}, "int >= 1"),
                    ("steady_state", {"requests": 2.5}, "int >= 1"),
                    ("steady_state", {"requests": 0}, "int >= 1"),
                    ("session_refresh", {"refresh": 0}, "int >= 1"),
                    ("catalog_churn", {"ingest_every": 0}, "int >= 1"),
                )
            ),
            (
                {"name": "x", "backends": ["lcrec"], "scenarios": ["steady_state"],
                 "cutoffs": [True]},
                "positive ints",
            ),
            # Keys and ops no committed config sets are gone, not ignored.
            *(
                (
                    {"name": "x", "backends": ["lcrec"], "scenarios": ["steady_state"], key: value},
                    "unknown config keys",
                )
                for key, value in (("top_k", 20), ("run_id", "nightly"))
            ),
            (
                {"name": "x", "backends": [{"name": "tiger", "dim": 32}],
                 "scenarios": ["steady_state"]},
                "unknown parameters",
            ),
            (
                {
                    "name": "x",
                    "backends": ["lcrec"],
                    "scenarios": [
                        {
                            "kind": "steady_state",
                            "expect": [{"metric": "shed", "op": "le", "value": 0}],
                        }
                    ],
                },
                "op 'le' unknown",
            ),
        ],
    )
    def test_invalid_configs_rejected(self, raw, fragment):
        with pytest.raises(ExperimentConfigError, match=fragment):
            ExperimentConfig.from_dict(raw)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentConfigError, match="scale name"):
            minimal_config(scale="huge")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown preset 'nope'"):
            minimal_config(preset="nope")

    def test_cli_exits_2_on_unknown_scale(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MATRIX_RAW, "scale": "huge"}))
        assert main(["experiment", "run", str(path), "--no-write"]) == 2
        assert "scale name" in capsys.readouterr().out

    def test_cli_exits_2_on_negative_seed(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MATRIX_RAW, "seed": -1}))
        assert main(["experiment", "run", str(path), "--no-write"]) == 2
        assert "seed must be an int >= 0, got -1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "backend, fragment",
        [
            ({"name": "lcrec", "tasks": ["seq", "nope"]}, "distinct tasks"),
            ({"name": "lcrec", "tasks": []}, "distinct tasks"),
            ({"name": "lcrec", "tasks": ["seq", "seq"]}, "distinct tasks"),
            ({"name": "lcrec", "tasks": "seq"}, "distinct tasks"),
            ({"name": "lcrec", "index_source": "hashed"}, "one of"),
            ({"name": "lcrec", "indexing_strategy": "raw"}, "one of"),
            ({"name": "tiger", "index_source": "vanilla"}, "one of"),
            ({"name": "sasrec", "epochs": 3}, "unknown parameters"),
            ({"name": "lcrec", "label": ""}, "non-empty"),
        ],
    )
    def test_backend_parameters_checked(self, backend, fragment):
        with pytest.raises(ExperimentConfigError, match=fragment):
            minimal_config(backends=[backend])

    def test_labels_let_one_backend_appear_twice(self):
        config = minimal_config(
            backends=["lcrec", {"name": "lcrec", "label": "full", "tasks": ["seq", "mut"]}]
        )
        assert [spec.label for spec in config.backends] == ["lcrec", "full"]
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        assert config.to_dict()["backends"][0] == {"name": "lcrec"}

    def test_paper_configs_parse(self):
        for preset in ("instruments", "arts", "games"):
            config = ExperimentConfig.from_file(f"examples/experiments/paper_{preset}.json")
            assert config.preset == preset
            labels = {spec.label for spec in config.backends}
            assert {"lcrec", "tiger", "p5cid", "sasrec", "s3-rec"} <= labels

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
        config = minimal_config(cutoffs=[1, 5])
        assert config.metric_keys() == ["HR@1", "HR@5", "NDCG@5"]

    def test_registries(self):
        assert set(known_backends()) == {
            "lcrec", "tiger", "p5cid",
            "caser", "hgn", "gru4rec", "bert4rec", "sasrec", "fmlp-rec", "fdsa", "s3-rec",
        }
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
        plan = self.plan(tiny_dataset, "cold_start", requests=9)
        submits = [e for e in plan.events if isinstance(e, SubmitEvent)]
        # Every 4th request from the first is emptied, the rest keep 2 items.
        assert [i for i, e in enumerate(submits) if not e.history] == [0, 4, 8]
        assert all(len(e.history) == 2 for e in submits if e.history)
        assert plan.extra == {"empty_histories": 3, "prefix_len": 2}
        assert plan.use_fallback

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
        assert sum(isinstance(e, SubmitEvent) for e in plan.events) == 9
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
# The paper tables' cells: served quality is offline quality
# ----------------------------------------------------------------------
class TestPaperCells:
    @pytest.fixture(scope="class")
    def paper_result(self, tiny_dataset, tiny_lcrec, tiny_tiger):
        return run_experiment(
            {
                "name": "paper",
                "scale": "tiny",
                "num_workers": 1,
                "backends": ["lcrec", "tiger", "sasrec"],
                "scenarios": [
                    # More requests than held-out users: each user is ranked once.
                    {"kind": "steady_state", "label": "template0", "requests": 100},
                    {"kind": "steady_state", "label": "templates3", "requests": 100,
                     "templates": 3},
                    {"kind": "cold_start", "requests": 4},
                ],
            },
            dataset=tiny_dataset,
            models={"lcrec": tiny_lcrec, "tiger": tiny_tiger},
            write=False,
        )

    @staticmethod
    def record(result, name):
        return next(r for r in result["records"] if r["name"] == name)

    @staticmethod
    def assert_quality_equals(quality, report):
        for key in ("HR@5", "HR@10", "NDCG@5", "NDCG@10"):
            assert quality[key] == pytest.approx(report[key], abs=1e-6), key

    def test_served_quality_equals_offline(self, paper_result, tiny_lcrec, tiny_dataset):
        from helpers import evaluate_recommender

        record = self.record(paper_result, "template0xlcrec")
        assert record["quality"]["evaluated"] == record["served"] == 60
        offline = evaluate_recommender(tiny_lcrec, tiny_dataset, bench_scale("tiny"))
        self.assert_quality_equals(record["quality"], offline)

    def test_template_average_equals_multi_template(
        self, paper_result, tiny_lcrec, tiny_dataset
    ):
        from helpers import evaluate_recommender_multi_template

        record = self.record(paper_result, "templates3xlcrec")
        assert record["quality"]["evaluated"] == 180
        offline = evaluate_recommender_multi_template(
            tiny_lcrec, tiny_dataset, bench_scale("tiny")
        )
        self.assert_quality_equals(record["quality"], offline)

    def test_id_baseline_ranks_offline(self, paper_result, tiny_dataset):
        from helpers import evaluate_scores

        from repro.bench import train_traditional_baseline

        record = self.record(paper_result, "template0xsasrec")
        assert record["supported"] and record["client"] == "score_all"
        assert record["served"] == record["quality"]["evaluated"] == 60
        model = train_traditional_baseline("SASRec", tiny_dataset, bench_scale("tiny"))
        offline = evaluate_scores(
            model, tiny_dataset.split.test_histories[:60], tiny_dataset.split.test_targets[:60]
        )
        self.assert_quality_equals(record["quality"], offline)

    def test_unsupported_cells_name_what_is_missing(self, paper_result):
        reasons = {
            name: self.record(paper_result, name)["reason"]
            for name in ("cold_startxsasrec", "templates3xsasrec", "templates3xtiger")
        }
        assert reasons["cold_startxsasrec"] == "cold_start needs a serving engine, sasrec has none"
        assert "several prompt templates" in reasons["templates3xsasrec"]
        assert "several prompt templates" in reasons["templates3xtiger"]
        assert self.record(paper_result, "cold_startxtiger")["supported"]

    def test_labels_name_build_variants(self, tiny_dataset, tiny_lcrec):
        result = run_experiment(
            {
                "name": "labels",
                "scale": "tiny",
                "backends": ["lcrec", {"name": "lcrec", "label": "again"}],
                "scenarios": [{"kind": "steady_state", "requests": 4}],
            },
            dataset=tiny_dataset,
            models={"lcrec": tiny_lcrec, "again": tiny_lcrec},
            write=False,
        )
        first, again = result["records"]
        assert (first["name"], again["name"]) == ("steady_statexlcrec", "steady_statexagain")
        assert again["backend"] == "again"
        assert again["quality"] == first["quality"]


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
    engine = LCRecEngine(model, prefix_cache=None)
    engine.attach_catalog(catalog)
    return engine


class TestRetrievalRefresh:
    """A ``fallback=catalog`` answers from the current version; nothing swaps lanes."""

    def test_service_degrades_from_the_ingested_catalog(self, tiny_lcrec, tiny_dataset, rng):
        catalog = tiny_lcrec.live_catalog()
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
        catalog = tiny_lcrec.live_catalog()
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
        catalog = tiny_lcrec.live_catalog()
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


# ----------------------------------------------------------------------
# One LM pretraining per run
# ----------------------------------------------------------------------
class TestOnePretraining:
    def test_lcrec_variants_and_semantic_tiger_share_one_pretraining(
        self, tiny_dataset, monkeypatch
    ):
        import repro.bench.runners as runners
        import repro.core.lcrec as lcrec_module
        import repro.experiments.runner as runner_module

        real_config, real_pretrain = runners.lcrec_config_for, lcrec_module.pretrain_lm

        def fast_config(*args, **kwargs):
            # The bench configuration, trained for a few steps: this counts
            # pretrainings, it does not judge them.
            config = real_config(*args, **kwargs)
            config.pretrain.steps = 3
            config.indexer.trainer.epochs = 2
            config.tasks.seq_per_user = 1
            config.tuning.epochs = 1
            return config

        calls = []

        def spy(*args):
            calls.append(args)
            return real_pretrain(*args)

        monkeypatch.setattr(runners, "lcrec_config_for", fast_config)
        monkeypatch.setattr(runner_module, "lcrec_config_for", fast_config)
        monkeypatch.setattr(lcrec_module, "pretrain_lm", spy)
        result = run_experiment(
            {
                "name": "one_pretraining",
                "scale": "tiny",
                "backends": [
                    {"name": "lcrec", "tasks": ["seq"]},
                    {"name": "lcrec", "label": "random_seq", "tasks": ["seq"],
                     "index_source": "random"},
                    {"name": "tiger", "index_source": "semantic", "epochs": 1},
                ],
                "scenarios": [{"kind": "steady_state", "requests": 2}],
            },
            dataset=tiny_dataset,
            write=False,
        )
        assert len(calls) == 1
        assert [r["supported"] for r in result["records"]] == [True, True, True]

    @staticmethod
    def fast_lcrec_config(**overrides):
        from helpers import small_lcrec_config
        from repro.core.tasks import AlignmentTaskConfig
        from repro.llm import PretrainConfig

        return small_lcrec_config(**{
            "pretrain": PretrainConfig(steps=6, batch_size=8, seq_len=48),
            "tasks": AlignmentTaskConfig(tasks=("seq",), seq_per_user=1, max_history=6),
            **overrides,
        })

    def test_a_build_from_pretrained_trains_the_weights_a_fresh_build_does(
        self, tiny_dataset
    ):
        from repro.core import LCRec

        stem = LCRec(tiny_dataset, self.fast_lcrec_config())
        stem.build_vocabulary()
        stem.build_language_model()
        stem_state = stem.lm.state_dict()
        shared = LCRec.from_pretrained(stem, self.fast_lcrec_config(index_source="random"))
        fresh = LCRec(tiny_dataset, self.fast_lcrec_config(index_source="random"))
        for model in (shared.build(), fresh.build()):
            assert model.lm.vocab_size > stem.lm.vocab_size
        assert shared.pretrain_losses == fresh.pretrain_losses
        assert shared.tuning_losses == fresh.tuning_losses
        for name, value in fresh.lm.state_dict().items():
            assert np.array_equal(shared.lm.state_dict()[name], value), name
        # The stem's vocabulary and LM are copied, never extended or tuned.
        assert len(stem.tokenizer.vocab) == stem.lm.vocab_size
        for name, value in stem.lm.state_dict().items():
            assert np.array_equal(stem_state[name], value), name

    def test_from_pretrained_rejects_a_different_pretraining(self, tiny_dataset):
        from repro.core import LCRec
        from repro.llm import PretrainConfig

        stem = LCRec(tiny_dataset, self.fast_lcrec_config())
        with pytest.raises(ValueError, match="build_language_model"):
            LCRec.from_pretrained(stem, self.fast_lcrec_config())
        stem.build_vocabulary()
        stem.build_language_model()
        other = self.fast_lcrec_config(pretrain=PretrainConfig(steps=7, batch_size=8, seq_len=48))
        with pytest.raises(ValueError, match="different LM"):
            LCRec.from_pretrained(stem, other)

    def test_builds_leave_the_callers_config_alone(self, tiny_dataset):
        """The LM's vocabulary size and seed go into the model's own copy."""
        import copy

        from repro.core import LCRec

        config = self.fast_lcrec_config(index_source="random")
        before = copy.deepcopy(config)
        LCRec(tiny_dataset, config).build()
        assert config == before
        stem = LCRec(tiny_dataset, self.fast_lcrec_config())
        stem.build_vocabulary()
        stem.build_language_model()
        variant = self.fast_lcrec_config(index_source="vanilla")
        before = copy.deepcopy(variant)
        LCRec.from_pretrained(stem, variant).build()
        assert variant == before
