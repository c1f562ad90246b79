"""Table IV: ablation of the semantic alignment tasks (Arts and Games).

Cumulatively adds task families to the tuning mixture — SEQ, +MUT, +ASY,
+ITE, +PER — and evaluates each variant with full ranking.  Paper-shape
expectation: performance improves (noisily but overall) as alignment
tasks are added; the full mixture beats SEQ-only.
"""

import pytest

from repro.bench import build_lcrec_model, evaluate_recommender, report
from repro.eval import MetricReport

CUMULATIVE = [
    ("SEQ", ("seq",)),
    ("+ MUT", ("seq", "mut")),
    ("+ ASY", ("seq", "mut", "asy")),
    ("+ ITE", ("seq", "mut", "asy", "ite")),
    ("+ PER", ("seq", "mut", "asy", "ite", "per")),
]

DATASETS = ("arts", "games")


def run_ablation(dataset_name, dataset_factory, lcrec_full_factory,
                 lcrec_seq_only_factory):
    dataset = dataset_factory(dataset_name)
    rows = [f"--- {dataset_name} ---", MetricReport.header()]
    reports = {}
    for label, tasks in CUMULATIVE:
        if tasks == ("seq",):
            model = lcrec_seq_only_factory(dataset_name)
        elif len(tasks) == 5:
            model = lcrec_full_factory(dataset_name)
        else:
            model = build_lcrec_model(dataset, tasks=tasks)
        reports[label] = evaluate_recommender(model, dataset)
        rows.append(reports[label].row(label))
    report(f"table4_task_ablation_{dataset_name}", "\n".join(rows))
    return reports


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_table4(dataset_name, dataset_factory, lcrec_full_factory, lcrec_seq_only_factory):
    reports = run_ablation(
        dataset_name, dataset_factory, lcrec_full_factory, lcrec_seq_only_factory
    )
    # Shape: the full mixture should not be worse than SEQ-only.
    assert reports["+ PER"]["HR@10"] >= 0.9 * reports["SEQ"]["HR@10"]
