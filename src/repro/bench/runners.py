"""Model builds shared by the experiment harness's backends.

Every builder is a pure function of ``(dataset, scale, seed)`` plus the
build parameters a config names, so two runs of one config train the
same weights.
"""

from __future__ import annotations

from typing import Callable

from ..baselines import (
    BERT4Rec,
    BaselineTrainer,
    BaselineTrainerConfig,
    Caser,
    FDSA,
    FMLP,
    GRU4Rec,
    HGN,
    S3Rec,
    SASRec,
)
from ..core import LCRec, LCRecConfig
from ..core.indexer import SemanticIndexerConfig, build_semantic_index_set
from ..core.tasks import ALL_TASKS, AlignmentTaskConfig
from ..data import SequentialDataset
from ..llm import LMConfig, PretrainConfig, TuningConfig
from ..quantization import ItemIndexSet, RQVAEConfig, RQVAETrainerConfig
from .config import BenchScale, bench_scale

__all__ = [
    "baseline_model",
    "train_traditional_baseline",
    "semantic_tiger_index",
    "lcrec_config_for",
    "pretrained_lcrec",
    "build_lcrec_model",
    "TRADITIONAL_BASELINES",
]

TRADITIONAL_BASELINES = (
    "Caser",
    "HGN",
    "GRU4Rec",
    "BERT4Rec",
    "SASRec",
    "FMLP-Rec",
    "FDSA",
    "S3-Rec",
)

_DIM = 48


def baseline_model(name: str, dataset: SequentialDataset, seed: int = 0):
    """Instantiate a traditional baseline by its paper name."""
    n = dataset.num_items
    subs = dataset.catalog.subcategories()
    num_subs = dataset.catalog.num_subcategories
    max_len = dataset.config.max_seq_len
    factories: dict[str, Callable] = {
        "Caser": lambda: Caser(n, dim=_DIM, max_len=max_len, seed=seed),
        "HGN": lambda: HGN(n, dim=_DIM, max_len=max_len, seed=seed),
        "GRU4Rec": lambda: GRU4Rec(n, dim=_DIM, max_len=max_len, seed=seed),
        "BERT4Rec": lambda: BERT4Rec(n, dim=_DIM, max_len=max_len, seed=seed),
        "SASRec": lambda: SASRec(n, dim=_DIM, max_len=max_len, seed=seed),
        "FMLP-Rec": lambda: FMLP(n, dim=_DIM, max_len=max_len, seed=seed),
        "FDSA": lambda: FDSA(n, subs, num_subs, dim=_DIM, max_len=max_len, seed=seed),
        "S3-Rec": lambda: S3Rec(n, subs, num_subs, dim=_DIM, max_len=max_len, seed=seed),
    }
    if name not in factories:
        raise KeyError(f"unknown baseline {name!r}")
    return factories[name]()


def train_traditional_baseline(
    name: str, dataset: SequentialDataset, scale: BenchScale | None = None, seed: int = 0
):
    """Train one ID-based baseline (Table III's budget) and return it."""
    scale = scale or bench_scale()
    model = baseline_model(name, dataset, seed=seed)
    trainer = BaselineTrainer(
        BaselineTrainerConfig(epochs=scale.epochs(30), batch_size=64, seed=seed)
    )
    if name == "S3-Rec":
        model.pretrain(dataset)
    trainer.fit(model, dataset)
    return model


def semantic_tiger_index(pretrained: LCRec, scale: BenchScale | None = None) -> ItemIndexSet:
    """TIGER's Table III semantic IDs.

    An RQ-VAE over the item text embeddings of ``pretrained``'s LM (a
    :func:`pretrained_lcrec`), with the extra-level dedup (TIGER's own
    conflict handling, no USM).
    """
    config = lcrec_config_for(
        pretrained.dataset, scale, indexing_strategy="extra_level", seed=pretrained.config.seed
    )
    lcrec = LCRec.from_pretrained(pretrained, config)
    lcrec.build_item_embeddings()
    index_set, _, _ = build_semantic_index_set(lcrec.item_embeddings, config.indexer)
    return index_set


def pretrained_lcrec(
    dataset: SequentialDataset, scale: BenchScale | None = None, seed: int = 0
) -> LCRec:
    """The vocabulary and pretrained LM of :func:`lcrec_config_for`'s LC-Rec.

    The LM's config and seed depend on ``(dataset, scale, seed)`` only,
    not on tasks, index source or indexing strategy, so every such variant
    (and :func:`semantic_tiger_index`) can start from this one through
    :meth:`LCRec.from_pretrained`.
    """
    lcrec = LCRec(dataset, lcrec_config_for(dataset, scale, seed=seed))
    lcrec.build_vocabulary()
    lcrec.build_language_model()
    return lcrec


def lcrec_config_for(
    dataset: SequentialDataset,
    scale: BenchScale | None = None,
    tasks: tuple[str, ...] = ALL_TASKS,
    index_source: str = "semantic",
    indexing_strategy: str = "usm",
    seed: int = 0,
) -> LCRecConfig:
    """The benchmark LC-Rec configuration (scaled to the dataset size)."""
    scale = scale or bench_scale()
    codebook = 24 if dataset.num_items <= 300 else 32
    return LCRecConfig(
        lm=LMConfig(dim=64, num_layers=2, num_heads=4, ffn_hidden=176, max_seq_len=256),
        pretrain=PretrainConfig(
            steps=scale.epochs(400, minimum=100), batch_size=16, seq_len=64, seed=seed
        ),
        indexer=SemanticIndexerConfig(
            rqvae=RQVAEConfig(
                latent_dim=32, hidden_dims=(96, 48), num_levels=4, codebook_size=codebook, seed=seed
            ),
            trainer=RQVAETrainerConfig(
                epochs=scale.epochs(150, minimum=50), batch_size=512, seed=seed
            ),
            strategy=indexing_strategy,
        ),
        tasks=AlignmentTaskConfig(tasks=tasks, max_history=10, seq_per_user=8, seed=seed),
        tuning=TuningConfig(
            epochs=scale.epochs(20, minimum=3), batch_size=16, lr=3e-3, max_len=220, seed=seed
        ),
        index_source=index_source,
        beam_size=20,
        seed=seed,
    )


def build_lcrec_model(
    dataset: SequentialDataset,
    scale: BenchScale | None = None,
    tasks: tuple[str, ...] = ALL_TASKS,
) -> LCRec:
    """Build (pretrain + index + tune) an LC-Rec variant: semantic USM indices, seed 0."""
    return LCRec(dataset, lcrec_config_for(dataset, scale, tasks=tasks)).build()
