"""Model construction and train/eval runners shared by every benchmark."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..baselines import (
    BERT4Rec,
    BaselineTrainer,
    BaselineTrainerConfig,
    Caser,
    FDSA,
    FMLP,
    GRU4Rec,
    HGN,
    P5CID,
    P5CIDConfig,
    S3Rec,
    SASRec,
    TIGER,
    TIGERConfig,
)
from ..core import LCRec, LCRecConfig
from ..core.indexer import SemanticIndexerConfig
from ..core.tasks import ALL_TASKS, AlignmentTaskConfig
from ..data import SequentialDataset
from ..eval import (
    MetricReport,
    evaluate_generative_model_batched,
    evaluate_score_model,
)
from ..llm import LMConfig, PretrainConfig, TuningConfig
from ..quantization import RQVAEConfig, RQVAETrainerConfig
from .config import BenchScale, bench_scale

__all__ = [
    "baseline_model",
    "run_traditional_baseline",
    "run_generative_baseline",
    "lcrec_config_for",
    "build_lcrec_model",
    "evaluate_recommender",
    "TRADITIONAL_BASELINES",
    "GENERATIVE_BASELINES",
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
GENERATIVE_BASELINES = ("P5-CID", "TIGER")

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


def _eval_slice(dataset: SequentialDataset, scale: BenchScale):
    limit = scale.max_eval_users
    return (dataset.split.test_histories[:limit], dataset.split.test_targets[:limit])


def run_traditional_baseline(
    name: str, dataset: SequentialDataset, scale: BenchScale | None = None, seed: int = 0
) -> MetricReport:
    """Train one ID-based baseline and evaluate it with full ranking."""
    scale = scale or bench_scale()
    model = baseline_model(name, dataset, seed=seed)
    trainer = BaselineTrainer(
        BaselineTrainerConfig(epochs=scale.epochs(30), batch_size=64, seed=seed)
    )
    if name == "S3-Rec":
        model.pretrain(dataset)
    trainer.fit(model, dataset)
    histories, targets = _eval_slice(dataset, scale)
    return evaluate_score_model(model, histories, targets)


def run_generative_baseline(
    name: str, dataset: SequentialDataset, scale: BenchScale | None = None, seed: int = 0
) -> MetricReport:
    """Train TIGER or P5-CID and evaluate with constrained beam search."""
    scale = scale or bench_scale()
    if name == "TIGER":
        # TIGER's semantic IDs: RQ-VAE over LLM text embeddings with the
        # extra-level dedup (its original conflict handling, no USM).
        lcrec = LCRec(dataset, lcrec_config_for(dataset, scale, seed=seed))
        lcrec.build_vocabulary()
        lcrec.build_language_model()
        lcrec.build_item_embeddings()
        config = lcrec.config.indexer
        config.strategy = "extra_level"
        config.rqvae.input_dim = lcrec.item_embeddings.shape[1]
        from ..core.indexer import build_semantic_index_set

        index_set, _, _ = build_semantic_index_set(lcrec.item_embeddings, config)
        model = TIGER(index_set, TIGERConfig(dim=_DIM, epochs=scale.epochs(30), seed=seed))
        model.fit(dataset)
    elif name == "P5-CID":
        model = P5CID(dataset, P5CIDConfig(dim=_DIM, epochs=scale.epochs(30), seed=seed))
        model.fit(dataset)
    else:
        raise KeyError(f"unknown generative baseline {name!r}")

    histories, targets = _eval_slice(dataset, scale)
    # Both generative baselines decode through their serving-engine
    # adapters (TIGEREngine / P5CIDEngine): whole evaluation chunks
    # share one beam-expansion forward per trie level.
    return evaluate_generative_model_batched(
        lambda chunk: model.recommend_many(chunk, top_k=10), histories, targets
    )


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
    index_source: str = "semantic",
    indexing_strategy: str = "usm",
    seed: int = 0,
) -> LCRec:
    """Build (pretrain + index + tune) an LC-Rec variant."""
    config = lcrec_config_for(
        dataset,
        scale,
        tasks=tasks,
        index_source=index_source,
        indexing_strategy=indexing_strategy,
        seed=seed,
    )
    return LCRec(dataset, config).build()


def evaluate_recommender(
    model: LCRec,
    dataset: SequentialDataset,
    scale: BenchScale | None = None,
    template_id: int = 0,
    batch_size: int = 16,
) -> MetricReport:
    """Full-ranking leave-one-out evaluation of an LC-Rec model.

    Users are decoded through the batched serving engine ``batch_size`` at
    a time (rankings are identical to per-user decoding).
    """
    scale = scale or bench_scale()
    histories, targets = _eval_slice(dataset, scale)

    def recommend_batch(batch):
        return model.recommend_many(batch, top_k=10, template_id=template_id)

    return evaluate_generative_model_batched(
        recommend_batch, histories, targets, batch_size=batch_size
    )


def evaluate_recommender_multi_template(
    model: LCRec,
    dataset: SequentialDataset,
    scale: BenchScale | None = None,
    template_ids: tuple[int, ...] = (0, 1, 2),
) -> MetricReport:
    """Average metrics over several instruction templates.

    This is the paper's exact Table III protocol: "The performance for our
    LC-Rec is average results from multiple instruction templates" — each
    template is evaluated independently and the metric values are averaged
    (no ensembling of rankings).
    """
    if not template_ids:
        raise ValueError("need at least one template id")
    reports = [evaluate_recommender(model, dataset, scale, template_id=t) for t in template_ids]
    keys = reports[0].values.keys()
    averaged = {key: float(np.mean([report[key] for report in reports])) for key in keys}
    return MetricReport(averaged)
