"""Scale control, model builds and JSON records for the experiment harness."""

from .config import BenchScale, bench_scale, scaled_dataset
from .runners import (
    TRADITIONAL_BASELINES,
    baseline_model,
    build_lcrec_model,
    lcrec_config_for,
    pretrained_lcrec,
    semantic_tiger_index,
    train_traditional_baseline,
)
from .reporting import report_json

__all__ = [
    "BenchScale",
    "bench_scale",
    "scaled_dataset",
    "TRADITIONAL_BASELINES",
    "baseline_model",
    "train_traditional_baseline",
    "semantic_tiger_index",
    "build_lcrec_model",
    "lcrec_config_for",
    "pretrained_lcrec",
    "report_json",
]
