"""End to end at smoke scale: every name printed, counts repeat, seeds matter."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that depend on traffic and code only, never on timing.  (Joins and
# forwards per request repeat in nearly every run, but how many requests an
# admission round finds queued is a race between two threads.)
REPEATING = {
    "steady_closed": ["llm.prefix_cache.token_hit_rate"],
    "session_cluster": ["llm.prefix_cache.token_hit_rate", "serving.cluster.affinity_hit_rate"],
}


def _run(workload, seed, *extra):
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload, "--seed", str(seed),
         "--smoke", *extra],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "rankings_digest" in line)
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module")
def smoke():
    return {name: _run(name, 1) for name in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_unit_and_finite_value(smoke, workload):
    result, _ = smoke[workload]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_modes_print_exactly_their_group(trace, group):
    result, _ = _run("tiger_batch", 1, "--trace", trace)
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}


@pytest.mark.parametrize("workload", sorted(REPEATING))
def test_same_seed_repeats_counts_and_rankings(smoke, workload):
    first, first_digest = smoke[workload]
    again, again_digest = _run(workload, 1)
    assert again_digest == first_digest
    for metric in REPEATING[workload]:
        assert again["metrics"][metric]["value"] == first["metrics"][metric]["value"], metric


def test_another_seed_is_other_traffic(smoke):
    _, digest = _run("steady_closed", 2)
    assert digest != smoke["steady_closed"][1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(PERF.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "steady_closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{") and '"metrics"' not in done.stdout
