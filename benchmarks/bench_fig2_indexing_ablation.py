"""Figure 2: item indexing ablation on Games (HR@5 / NDCG@5).

Compares three base indexing methods — Vanilla ID, Random Indices and
LC-Rec w/o USM (extra-level dedup) — each fine-tuned (a) with only the
sequential item prediction task ("SEQ") and (b) with the full alignment
mixture ("w/ ALIGN"), against full LC-Rec.

Paper-shape expectations: LC-Rec beats all three base indexings; adding
the alignment tasks boosts every indexing method, most strongly the
multi-level ones.
"""

from repro.bench import build_lcrec_model, evaluate_recommender, report

VARIANTS = [
    ("Vanilla ID", dict(index_source="vanilla")),
    ("Random Indices", dict(index_source="random")),
    ("LC-Rec w/o USM", dict(index_source="semantic",
                            indexing_strategy="extra_level")),
]


def run_figure(games_dataset, games_lcrec):
    lcrec_report = evaluate_recommender(games_lcrec, games_dataset)
    rows = [f"{'indexing':<16} {'mixture':<9} {'HR@5':>7} {'NDCG@5':>7}"]
    results = {}
    for label, kwargs in VARIANTS:
        for mixture_label, tasks in (("SEQ", ("seq",)),
                                     ("w/ ALIGN", None)):
            model = build_lcrec_model(
                games_dataset,
                tasks=tasks if tasks else
                ("seq", "mut", "asy", "ite", "per"),
                **kwargs,
            )
            metric_report = evaluate_recommender(model, games_dataset)
            results[(label, mixture_label)] = metric_report
            rows.append(f"{label:<16} {mixture_label:<9} "
                        f"{metric_report['HR@5']:7.4f} "
                        f"{metric_report['NDCG@5']:7.4f}")
    rows.append(f"{'LC-Rec':<16} {'w/ ALIGN':<9} "
                f"{lcrec_report['HR@5']:7.4f} "
                f"{lcrec_report['NDCG@5']:7.4f}  (red dotted line)")
    report("fig2_indexing_ablation", "\n".join(rows))
    return results, lcrec_report


def test_fig2(games_dataset, games_lcrec):
    results, lcrec_report = run_figure(games_dataset, games_lcrec)
    # Shape: alignment tasks help each indexing on average (Fig. 2 claim:
    # "their performance can be boosted by a large margin").
    gains = [
        results[(label, "w/ ALIGN")]["HR@5"]
        - results[(label, "SEQ")]["HR@5"]
        for label, _ in VARIANTS
    ]
    assert sum(gains) > 0, f"alignment should help on average: {gains}"
