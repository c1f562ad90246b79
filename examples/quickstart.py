#!/usr/bin/env python
"""Quickstart: build LC-Rec on a small synthetic dataset and recommend.

Walks the full paper pipeline end to end:

1. generate an Amazon-like dataset (5-core filtered, leave-one-out split);
2. pretrain the tiny LLaMA on the item-text corpus;
3. learn 4-level semantic item indices (RQ-VAE + uniform semantic mapping);
4. instruction-tune on the five alignment task families;
5. recommend over the *entire* item set with constrained beam search.

Run:  python examples/quickstart.py
"""

from repro.core import LCRec, LCRecConfig
from repro.core.indexer import SemanticIndexerConfig
from repro.core.tasks import AlignmentTaskConfig
from repro.data import build_dataset, dataset_statistics, format_table2_row, preset_config
from repro.eval import evaluate_generative_model_batched
from repro.llm import PretrainConfig, TuningConfig
from repro.quantization import RQVAEConfig, RQVAETrainerConfig


def main() -> None:
    # 1. Data: a scaled-down "Musical Instruments" analogue.
    dataset = build_dataset(preset_config("instruments", scale=0.3))
    print("dataset:", format_table2_row(dataset_statistics(dataset)))

    # 2-4. One config drives the whole build.
    config = LCRecConfig(
        pretrain=PretrainConfig(steps=250, batch_size=16),
        indexer=SemanticIndexerConfig(
            rqvae=RQVAEConfig(latent_dim=32, hidden_dims=(96, 48), num_levels=4, codebook_size=16),
            trainer=RQVAETrainerConfig(epochs=120, batch_size=512),
        ),
        tasks=AlignmentTaskConfig(max_history=8, seq_per_user=2),
        tuning=TuningConfig(epochs=2, batch_size=16, lr=3e-3),
        beam_size=20,
    )
    model = LCRec(dataset, config).build()
    print(f"LM parameters: {model.lm.num_parameters():,}")
    print("example item index:", model.index_set.index_text(0), "->", dataset.catalog[0].title)

    # 5. Recommend for one user...
    history = dataset.split.test_histories[0]
    target = dataset.split.test_targets[0]
    ranked = model.recommend(history, top_k=10)
    print("\nuser 0 history (titles):")
    for item_id in history[-5:]:
        print("  -", dataset.catalog[item_id].title)
    print("target:", dataset.catalog[target].title)
    print("top-10 recommendations:")
    for rank, item_id in enumerate(ranked, 1):
        marker = "  <-- target" if item_id == target else ""
        print(f"  {rank:2d}. {dataset.catalog[item_id].title}{marker}")

    # ...and evaluate full-ranking metrics on a slice of test users.
    report = evaluate_generative_model_batched(
        lambda batch: model.recommend_many(batch, top_k=10),
        dataset.split.test_histories[:100],
        dataset.split.test_targets[:100],
    )
    print("\nfull-ranking metrics on 100 test users:")
    print(report.row("LC-Rec"))


if __name__ == "__main__":
    main()
