"""Synthetic datasets, preprocessing and batching."""

from .batching import iterate_minibatches, pad_sequences
from .catalog import CatalogConfig, Item, ItemCatalog, Lexicon, generate_catalog
from .datasets import (
    PRESETS,
    DatasetConfig,
    SequentialDataset,
    build_dataset,
    preset_config,
)
from .intentions import IntentionExample, IntentionGenerator, PreferenceExample
from .interactions import (
    BehaviorConfig,
    BehaviorModel,
    Interaction,
    simulate_interactions,
)
from .preprocess import (
    LeaveOneOutSplit,
    build_user_sequences,
    k_core_filter,
    leave_one_out_split,
    reindex_log,
)
from .stats import DatasetStatistics, dataset_statistics, format_table2_row

__all__ = [
    "Item",
    "ItemCatalog",
    "Lexicon",
    "CatalogConfig",
    "generate_catalog",
    "Interaction",
    "BehaviorConfig",
    "BehaviorModel",
    "simulate_interactions",
    "k_core_filter",
    "reindex_log",
    "build_user_sequences",
    "leave_one_out_split",
    "LeaveOneOutSplit",
    "DatasetConfig",
    "SequentialDataset",
    "build_dataset",
    "preset_config",
    "PRESETS",
    "IntentionGenerator",
    "IntentionExample",
    "PreferenceExample",
    "DatasetStatistics",
    "dataset_statistics",
    "format_table2_row",
    "pad_sequences",
    "iterate_minibatches",
]
