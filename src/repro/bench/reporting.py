"""Benchmark result reporting: print and persist tables and JSON.

``pytest`` captures stdout, so every experiment table is also written to
``benchmarks/results/<name>.txt``; run pytest with ``-s`` to watch tables
stream live.  The experiment harness (``repro.experiments``) additionally
persists one machine-readable record per run via :func:`report_json` into
the repo-root ``benchmark_results/`` directory — an untracked output
location; CI validates what its harness smoke wrote there and uploads it
as an artifact.  Comparable serving numbers come from ``perf/run.py``,
not from these records.
"""

from __future__ import annotations

import json
import pathlib
import subprocess

__all__ = ["report", "report_json", "results_dir", "benchmark_results_dir", "git_sha"]


def _repo_root() -> pathlib.Path | None:
    path = pathlib.Path(__file__).resolve()
    for parent in path.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return None


def results_dir() -> pathlib.Path:
    root = _repo_root()
    target = (root / "benchmarks" / "results") if root else pathlib.Path.cwd() / "benchmark_results"
    target.mkdir(parents=True, exist_ok=True)
    return target


def benchmark_results_dir() -> pathlib.Path:
    """The repo-root ``benchmark_results/`` directory (untracked output)."""
    root = _repo_root()
    target = (root / "benchmark_results") if root else pathlib.Path.cwd() / "benchmark_results"
    target.mkdir(parents=True, exist_ok=True)
    return target


def git_sha() -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    root = _repo_root()
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root or pathlib.Path.cwd(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def report(name: str, text: str) -> pathlib.Path:
    """Print ``text`` and persist it under ``benchmarks/results/``."""
    print(f"\n===== {name} =====\n{text}\n")
    destination = results_dir() / f"{name}.txt"
    destination.write_text(text + "\n")
    return destination


def report_json(name: str, config: dict, results) -> pathlib.Path:
    """Persist a machine-readable record to ``benchmark_results/``.

    The payload schema every experiment record shares::

        {
          "bench":   "<name>",
          "git_sha": "<revision the numbers were measured at>",
          "config":  {...workload knobs: widths, request counts, scale...},
          "results": [...one entry per measured configuration...]
        }

    ``docs/experiments.md`` documents the harness's per-cell entries.
    """
    payload = {"bench": name, "git_sha": git_sha(), "config": config, "results": results}
    destination = benchmark_results_dir() / f"{name}.json"
    destination.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return destination
