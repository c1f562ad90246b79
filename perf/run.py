"""The serving ledger's one command.

    python perf/run.py                       all four workloads, each in a fresh
                                             process: end-to-end + per-layer + checks
    python perf/run.py --workload W --seed N --seconds S --trace 0|1
                                             one run, as the benchmark driver calls it
    python perf/run.py --repeat N [--workload W] [--record]
                                             N fresh processes per workload: spread of
                                             every end-to-end metric against its bound
    python perf/run.py --smoke               5 epochs per workload

The last line of a single run's standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perf/README.md.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()
# Two cores: one decode thread per worker plus the generator thread, and
# no BLAS pool fighting them.  Must precede the first numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import hashlib
import json
import operator
import platform
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WARMUP_EPOCHS = 3
GIVE_UP_FACTOR = 3.0  # a phase sized to take S seconds gives up, and fails the run, after 3 S
RANGE_LIMIT = 0.10  # --repeat: range / median allowed on a normalised timing
GATE_SAMPLES = 48
CHILD_TIMEOUT_S = 600


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: str, smoke: bool) -> dict:
    """Set up, run the timed phase, check rankings, optionally trace.

    ``trace``: ``"0"`` end-to-end metrics only; ``"1"`` per-layer metrics
    only (a half-length untraced reference phase, then the traced phase);
    ``"both"`` the full timed phase, then the traced phase.
    """
    import numpy as np

    import fixture
    import ledger
    from loadgen import run_phase
    from pinning import HostProbe
    from refstep import RefStep
    from tracing import Recorder, install_layer_spans
    from workloads import SMOKE_EPOCHS, WORKLOADS

    workload = WORKLOADS[name]
    refstep = RefStep()

    def phase(served, index: int, epochs: int, recorder=None):
        """Phase ``index`` of this seed's traffic: 0 warm-up, 1 timed, 2 traced."""
        rng = np.random.default_rng([seed, index])
        return run_phase(
            served.client,
            workload.traffic(dataset, rng, epochs),
            workload.clients,
            fixture.TOP_K,
            HostProbe(refstep, served.decode_cpus),
            served.decode_threads,
            ingests=workload.ingests(dataset, rng, epochs),
            recorder=recorder,
            give_up_after_s=GIVE_UP_FACTOR * epochs / workload.epochs_per_second,
        )

    dataset = fixture.build_dataset()
    model = workload.build_model(dataset)
    served = workload.start(model)
    phase(served, 0, WARMUP_EPOCHS)
    gc.collect()
    setup_s = time.perf_counter() - _PROCESS_START

    epochs = workload.epochs(seconds, smoke)
    traced_epochs = max(SMOKE_EPOCHS, epochs // 2)
    timed_epochs = traced_epochs if trace == "1" else epochs
    timed = phase(served, 1, timed_epochs)
    num_items = workload.num_items(model, served)
    mismatched = _gate(workload, model, served, timed, np.random.default_rng([seed, 3]))
    served.client.stop()
    end_to_end, attempted, failed = ledger.end_to_end(
        workload.quota, workload.slo_nms, timed, setup_s, num_items, mismatched
    )
    digest = hashlib.blake2b(
        json.dumps([record.ranking for record in timed.requests]).encode(), digest_size=8
    ).hexdigest()

    gave_up = timed.gave_up
    metrics: dict[str, tuple[float, str]] = {}
    if trace != "1":
        metrics.update({k: (v, ledger.END_TO_END[k]) for k, v in end_to_end.items()})
    if trace != "0":
        recorder = Recorder()
        install_layer_spans(recorder)
        try:
            traced_served = workload.start(model)
            recorder.wrap(traced_served.client, "submit", "serving.service.submit")
            recorder.wrap(traced_served.client, "ingest_item", "serving.client.ingest")
            if traced_served.catalog is not None:
                recorder.wrap(traced_served.catalog, "embed", "core.catalog.embed")
            phase(traced_served, 0, WARMUP_EPOCHS)  # spans stamped epoch -1: dropped
            gc.collect()
            traced = phase(traced_served, 2, traced_epochs, recorder=recorder)
            traced_served.client.stop()
            gave_up |= traced.gave_up
        finally:
            recorder.uninstall()
        layers = ledger.per_layer(traced_served, timed, traced, recorder)
        metrics.update({k: (v, ledger.PER_LAYER[k]) for k, v in layers.items()})
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write_jsonl(out_dir / f"{name}.trace.jsonl")

    print(f"workload {name}  seed {seed}  epochs {len(timed.epochs)} of {timed_epochs}  "
          f"clients {workload.clients}  quota {workload.quota}"
          + ("  GAVE UP: the host is too slow for this run length" if gave_up else ""))
    print(f"set-up {setup_s:.1f} s  timed phase {timed.epochs[-1].end - timed.epochs[0].start:.1f} s  "
          f"requests {len(timed.requests)}  ingests {len(timed.ingests)}  "
          f"gate_mismatches {len(mismatched)}  rankings_digest {digest}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<46} {value:>14.4f} {unit}")
    return {
        "correct": failed == 0 and not gave_up,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def _gate(workload, model, served, timed, rng) -> set[int]:
    """Bit-for-bit check of sampled rankings against the cache-less oracle.

    Only requests served at the catalog version the phase ended on can be
    compared (the oracle decodes over the final catalog), so with ingests
    the sample comes from the epochs after the last one.  Returns the
    ``id()`` of every record whose ranking differs.
    """
    last_ingest = max((ingest.epoch for ingest in timed.ingests), default=0)
    pool = [record for record in timed.requests if record.epoch >= last_ingest]
    picks = rng.choice(len(pool), size=min(GATE_SAMPLES, len(pool)), replace=False)
    sample = [pool[i] for i in sorted(picks)]
    expected = workload.oracle(model, served, [list(r.request.history) for r in sample])
    return {id(r) for r, want in zip(sample, expected) if r.ranking != want}


# ----------------------------------------------------------------------
# Fresh processes: the report over all workloads, and --repeat
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: str | None, smoke: bool) -> dict:
    """Run one workload in a fresh process; return its result object."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    if trace is not None:
        command += ["--trace", trace]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 and not lines:
        raise RuntimeError(f"{workload} exited {done.returncode}:\n{done.stderr[-2000:]}")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


# What a healthy ledger shows, per workload: (metric, comparison, limit).
EXPECTATIONS = {
    "steady_closed": [
        ("serving.service.joins_per_admission", ">", 0.0),
        ("llm.prefix_cache.token_hit_rate", "<", 0.4),
        ("trace.ledger_coverage_share", ">=", 0.9),
    ],
    "session_cluster": [("llm.prefix_cache.token_hit_rate", ">=", 0.6)],
    "churn_hybrid": [
        ("retrieval.hybrid.narrowed_share", ">", 0.9),
        ("trace.ledger_coverage_share", ">=", 0.9),
    ],
    "tiger_batch": [("trace.ledger_coverage_share", ">=", 0.9)],
}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def report_all(names: list[str], seed: int, seconds: float, smoke: bool) -> int:
    """Every workload once, end-to-end and per-layer; non-zero if a check fails."""
    problems = []
    for name in names:
        result = _child(name, seed, seconds, None, smoke)
        values = {k: float(v["value"]) for k, v in result["metrics"].items()}
        if not result["correct"] or result["exit"] != 0 or values["succeeded_share"] != 1.0:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} operations failed")
        for metric, op, limit in () if smoke else EXPECTATIONS[name]:  # sized for full runs
            if not _COMPARE[op](values[metric], limit):
                problems.append(f"{name}: expected {metric} {op} {limit}, got {values[metric]:.4f}")
    for problem in problems:
        print("FAIL", problem)
    print("ledger", "FAILED" if problems else "ok")
    return 1 if problems else 0


def _spread(values: list[float]) -> tuple[float, float]:
    """(range / median, interquartile range / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (max(values) - min(values)) / median, (q3 - q1) / median


def repeat(names: list[str], runs: int, seed: int, seconds: float, record: bool) -> int:
    """``runs`` fresh processes per workload, one seed each; spreads against bounds.

    Fails when a metric's first-half and second-half medians disagree by
    more than its bound (a share of the first for timings and sizes, an
    absolute difference for shares), or when a normalised timing's range
    is more than RANGE_LIMIT of its median — the tool the repeatability
    criterion, and every later claim, is checked with.
    """
    spec = _benchmark_json()
    baseline, failed = {}, False
    for name in names:
        results = [_child(name, seed + i, seconds, "0", False) for i in range(runs)]
        print(f"\n{name}: {runs} runs")
        print(f"  {'metric':<20} {'min':>10} {'median':>10} {'max':>10} "
              f"{'range/med':>10} {'iqr/med':>9} {'halves':>8} {'bound':>6}")
        baseline[name] = {}
        for metric in spec["end_to_end"]:
            name_, unit, bound = metric["name"], metric["unit"], metric["bound"]
            values = [float(r["metrics"][name_]["value"]) for r in results]
            median = statistics.median(values)
            spread, iqr = _spread(values)
            half = runs // 2
            first, second = statistics.median(values[:half]), statistics.median(values[half:])
            drift = abs(second - first) / (1.0 if unit == "share" else first)
            flags = []
            if drift > bound:
                flags.append("halves disagree")
            if unit in ("nms", "nrps") and spread > RANGE_LIMIT:
                flags.append(f"range over {RANGE_LIMIT:.2f}")
            failed |= bool(flags)
            print(f"  {name_:<20} {min(values):>10.3f} {median:>10.3f} {max(values):>10.3f} "
                  f"{spread:>10.4f} {iqr:>9.4f} {drift:>8.4f} {bound:>6.2f}"
                  + ("  <-- " + ", ".join(flags) if flags else ""))
            baseline[name][name_] = median
        failed |= any(not r["correct"] for r in results)
    if record:
        _record_baseline(baseline, runs, seconds)
    return 1 if failed else 0


def _record_baseline(medians: dict, runs: int, seconds: float) -> None:
    """Write perf/baseline.json: sizes, limits, host fingerprint, medians."""
    import numpy as np

    from workloads import WORKLOADS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    (HERE / "baseline.json").write_text(
        json.dumps(
            {
                "host": {
                    "cores": os.cpu_count(),
                    "machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas": f"{blas['name']} {blas['version']}",
                    "blas_threads": 1,
                },
                "runs_per_workload": runs,
                "seconds": seconds,
                "workloads": {
                    name: {
                        "clients": w.clients,
                        "quota": w.quota,
                        "epochs": w.epochs(seconds, smoke=False),
                        "slo_nms": w.slo_nms,
                        "medians": medians[name],
                    }
                    for name, w in WORKLOADS.items()
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: the program is not here ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true", help="5 epochs per workload")
    parser.add_argument("--repeat", type=int, metavar="N", help="N fresh processes per workload")
    parser.add_argument("--record", action="store_true", help="with --repeat: write baseline.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    selected = [args.workload] if args.workload else names
    if args.repeat is not None:
        if args.repeat < 4:
            parser.error("--repeat needs at least 4 runs to compare two halves")
        if args.record and args.workload:
            parser.error("--record writes every workload's medians: drop --workload")
        return repeat(selected, args.repeat, args.seed, args.seconds, args.record)
    if args.workload is None:
        return report_all(selected, args.seed, args.seconds, args.smoke)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace or "both", args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
