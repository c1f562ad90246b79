#!/usr/bin/env python
"""Using the library on a custom dataset configuration.

Shows the lower-level APIs: configuring the catalog/behaviour simulators
directly, inspecting 5-core preprocessing, training the RQ-VAE on your own
embedding matrix, and comparing indexing strategies (USM vs extra-level).

Run:  python examples/custom_dataset.py
"""

import numpy as np

from repro.core.indexer import SemanticIndexerConfig, build_semantic_index_set
from repro.data import (
    BehaviorConfig,
    CatalogConfig,
    DatasetConfig,
    build_dataset,
    dataset_statistics,
    format_table2_row,
)
from repro.quantization import RQVAEConfig, RQVAETrainerConfig, count_conflicts


def main() -> None:
    # A bespoke dataset: denser than the presets, stronger complements.
    config = DatasetConfig(
        name="my-shop",
        catalog=CatalogConfig(num_items=150, num_categories=5, subcategories_per_category=3),
        behavior=BehaviorConfig(num_users=400, mean_length=10.0, complement_prob=0.25),
        max_seq_len=20,
        seed=777,
    )
    dataset = build_dataset(config)
    print(format_table2_row(dataset_statistics(dataset)))
    print(f"kept {dataset.num_items}/{config.catalog.num_items} items after 5-core filtering")

    # Any (num_items, dim) embedding matrix works as RQ-VAE input; here we
    # use a bag-of-keywords embedding instead of LLM states to show the API.
    lexicon_words = dataset.catalog.lexicon.all_words()
    word_to_col = {w: i for i, w in enumerate(lexicon_words)}
    embeddings = np.zeros((dataset.num_items, len(lexicon_words)), dtype=np.float32)
    for item in dataset.catalog:
        for word in item.description.split():
            column = word_to_col.get(word)
            if column is not None:
                embeddings[item.item_id, column] += 1.0
    embeddings /= np.maximum(np.linalg.norm(embeddings, axis=1, keepdims=True), 1e-9)

    indexer = SemanticIndexerConfig(
        rqvae=RQVAEConfig(latent_dim=24, hidden_dims=(64,), num_levels=4, codebook_size=16),
        trainer=RQVAETrainerConfig(epochs=100, batch_size=256),
    )

    for strategy in ("usm", "extra_level"):
        indexer.strategy = strategy
        index_set, rqvae, _ = build_semantic_index_set(embeddings, indexer)
        raw_conflicts = count_conflicts(rqvae.quantize(embeddings).codes)
        print(
            f"\nstrategy={strategy}: levels={index_set.num_levels}, "
            f"unique={index_set.is_unique()}, "
            f"raw greedy conflicts resolved={raw_conflicts}"
        )
        print("  sample indices:", ", ".join(index_set.index_text(i) for i in range(3)))

    # Same-subcategory items should share index prefixes (semantics!).
    indexer.strategy = "usm"
    index_set, _, _ = build_semantic_index_set(embeddings, indexer)
    subs = dataset.catalog.subcategories()
    same_sub = prefix_match = 0
    for a in range(dataset.num_items):
        for b in range(a + 1, dataset.num_items):
            if subs[a] == subs[b]:
                same_sub += 1
                if index_set.codes[a, 0] == index_set.codes[b, 0]:
                    prefix_match += 1
    print(
        f"\nsame-subcategory pairs sharing the level-1 code: "
        f"{prefix_match / max(same_sub, 1):.1%}"
    )


if __name__ == "__main__":
    main()
