"""Figure 4: PCA visualisation of LLM token embeddings (Games).

Projects the item-index token embeddings and the item-text token
embeddings to 2-D with PCA, for (a) a model tuned only on sequential item
prediction and (b) full LC-Rec.  Paper-shape expectation: without the
alignment tasks the index tokens form their own cluster (high separation
score); LC-Rec's alignment mixes them into the language space (markedly
lower separation).
"""

from repro.analysis import ascii_scatter, embedding_separation, fit_pca
from repro.bench import report


def run_figure(games_lcrec, seq_only):
    rows = []
    separations = {}
    for label, model in (("SEQ only", seq_only), ("LC-Rec", games_lcrec)):
        groups = model.token_embedding_groups()
        separation = embedding_separation(groups["item_indices"],
                                          groups["item_texts"])
        separations[label] = separation.separation
        pca = fit_pca(
            __import__("numpy").concatenate(
                [groups["item_indices"], groups["item_texts"]], axis=0),
            n_components=2,
        )
        projected = {
            "indices": pca.transform(groups["item_indices"]),
            "texts": pca.transform(groups["item_texts"]),
        }
        rows.append(f"--- {label}: separation score "
                    f"{separation.separation:.3f} (centroid distance "
                    f"{separation.centroid_distance:.3f}, spread "
                    f"{separation.within_spread:.3f}) ---")
        rows.append(ascii_scatter(projected, width=64, height=16))
    rows.append(
        "interpretation: lower separation = index tokens integrated into "
        "the language embedding space (the paper's Fig. 4b vs 4a)."
    )
    report("fig4_embedding_pca", "\n".join(rows))
    return separations


def test_fig4(games_lcrec, games_dataset, lcrec_seq_only_factory):
    seq_only = lcrec_seq_only_factory("games")
    separations = run_figure(games_lcrec, seq_only)
    # Shape: full LC-Rec integrates index tokens at least as well as the
    # SEQ-only variant (strictly better in the paper).
    assert separations["LC-Rec"] <= separations["SEQ only"] * 1.1
