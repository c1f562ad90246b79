"""Benchmark scale control.

An experiment config names its scale; with none, the ``REPRO_SCALE``
environment variable selects it:

* ``tiny``  — smoke-test scale (seconds per model; shapes may be noisy);
* ``small`` — default; minutes per table, paper-shaped results;
* ``full``  — the presets at full size (slowest, sharpest contrasts).

The paper's absolute dataset sizes (tens of thousands of users) are out of
reach for a pure-numpy substrate; docs/reproducing.md documents the scaling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..data import SequentialDataset, build_dataset, preset_config

__all__ = ["BenchScale", "bench_scale", "scaled_dataset"]


@dataclass(frozen=True)
class BenchScale:
    """Multipliers applied to datasets and training lengths."""

    name: str
    dataset_scale: float
    epoch_scale: float
    max_eval_users: int

    def epochs(self, base: int, minimum: int = 1) -> int:
        return max(int(round(base * self.epoch_scale)), minimum)


_SCALES = {
    "tiny": BenchScale("tiny", dataset_scale=0.15, epoch_scale=0.4, max_eval_users=60),
    "small": BenchScale("small", dataset_scale=0.3, epoch_scale=0.6, max_eval_users=100),
    "full": BenchScale("full", dataset_scale=1.0, epoch_scale=1.0, max_eval_users=100000),
}


def bench_scale(name: str | None = None) -> BenchScale:
    """Resolve a benchmark scale by name, programmatically or from the env.

    With ``name`` given (e.g. from an :class:`repro.experiments.ExperimentConfig`)
    that scale is returned directly — no environment variable involved, no
    monkeypatching required.  With ``name=None`` the ``REPRO_SCALE``
    environment variable selects the scale (default ``small``).
    """
    source = "scale name"
    if name is None:
        source = "REPRO_SCALE"
        name = os.environ.get("REPRO_SCALE", "small")
    name = name.lower()
    if name not in _SCALES:
        raise KeyError(f"{source} must be one of {sorted(_SCALES)}, got {name!r}")
    return _SCALES[name]


def scaled_dataset(
    preset: str, scale: BenchScale | None = None, seed: int | None = None
) -> SequentialDataset:
    """Build a preset dataset at the active benchmark scale."""
    scale = scale or bench_scale()
    config = preset_config(preset, seed=seed, scale=scale.dataset_scale)
    return build_dataset(config)
