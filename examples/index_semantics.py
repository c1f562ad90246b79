#!/usr/bin/env python
"""What do the learned item indices mean?  (Figs. 4, 5 and 6, Games.)

* Fig. 4: PCA of the index-token and item-text-token embeddings, for a
  model tuned on sequential prediction only and for full LC-Rec.  A lower
  separation score means the alignment tasks pulled the index tokens
  into the language space.
* Fig. 5(a): titles generated from growing index prefixes converge
  coarse-to-fine toward the true title.
* Fig. 6: how often adding each index level changes the generated text.
* Fig. 5(b): related items by shared index prefix (language +
  collaborative semantics) vs by raw text-embedding cosine (language only).

Both models are the experiment harness's LC-Rec builds at the scale
``REPRO_SCALE`` names (``tiny`` | ``small`` | ``full``; default ``small``).

Run:  REPRO_SCALE=tiny PYTHONPATH=src python examples/index_semantics.py
"""

import numpy as np

from repro.analysis import (
    ascii_scatter,
    count_level_changes,
    embedding_separation,
    fit_pca,
    generate_from_prefixes,
)
from repro.bench import bench_scale, build_lcrec_model, scaled_dataset


def figure4(models) -> None:
    for label, model in models.items():
        groups = model.token_embedding_groups()
        indices, texts = groups["item_indices"], groups["item_texts"]
        separation = embedding_separation(indices, texts)
        pca = fit_pca(np.concatenate([indices, texts], axis=0))
        print(
            f"\n--- Fig. 4, {label}: separation {separation.separation:.3f} "
            f"(centroid distance {separation.centroid_distance:.3f}, "
            f"spread {separation.within_spread:.3f}) ---"
        )
        projected = {"indices": pca.transform(indices), "texts": pca.transform(texts)}
        print(ascii_scatter(projected, width=64, height=16))


def main() -> None:
    scale = bench_scale()
    dataset = scaled_dataset("games", scale)
    model = build_lcrec_model(dataset, scale)
    figure4({"SEQ only": build_lcrec_model(dataset, scale, tasks=("seq",)), "LC-Rec": model})

    # Fig. 5(a): title generation from index prefixes, two showcase items.
    rng = np.random.default_rng(9)
    for item_id in rng.choice(dataset.num_items, size=2, replace=False):
        study = generate_from_prefixes(model, int(item_id))
        print(f"\nitem {item_id}: true title = {study.true_title!r}")
        for depth, text in enumerate(study.generations, 1):
            prefix = "".join(model.index_set.token_strings(int(item_id))[:depth])
            print(f"  {prefix:<28} -> {text[:70]}")

    # Fig. 6: proportion of generation changes per added level.
    size = min(scale.max_eval_users, dataset.num_items, 80)
    sample = np.random.default_rng(17).choice(dataset.num_items, size=size, replace=False)
    studies = [generate_from_prefixes(model, int(i), max_new_tokens=12) for i in sample]
    changes = count_level_changes(studies)
    print(f"\ncontent changes caused by each index level (Fig. 6, {changes.total_items} items):")
    for transition, proportion in zip(changes.transitions, changes.change_proportions):
        print(f"  level {transition}: {proportion:6.1%} {'#' * int(proportion * 40)}")

    # Fig. 5(b): related items — index neighbourhood vs text-cosine recall.
    anchor = int(sample[0])
    prefix = model.index_set.codes[anchor][:2]
    index_related = [
        i
        for i in range(dataset.num_items)
        if i != anchor and (model.index_set.codes[i][:2] == prefix).all()
    ][:3]
    emb = model.item_embeddings
    normed = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    cosine = normed @ normed[anchor]
    cosine[anchor] = -np.inf
    text_related = np.argsort(-cosine)[:3]
    print(f"\nanchor item: {dataset.catalog[anchor].title}")
    print("  related by shared index prefix (language + collaborative):")
    for item_id in index_related:
        print("   -", dataset.catalog[item_id].title)
    print("  related by text-embedding cosine (language only):")
    for item_id in text_related:
        print("   -", dataset.catalog[int(item_id)].title)


if __name__ == "__main__":
    main()
