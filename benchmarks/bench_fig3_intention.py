"""Figure 3: item prediction based on user intention (Games).

Queries are simulated GPT-3.5 intention texts for each test user's
held-out item.  Compares:

* **DSSM** — two-tower text retrieval trained on training intentions;
* **LC-Rec** — full model (its mixture includes the ITE task);
* **LC-Rec (Zero-Shot)** — tuned *without* the intention task, probing
  whether index-language alignment alone links intentions to items.

Paper-shape expectations: LC-Rec > DSSM; the zero-shot variant is well
above chance but below the trained model.
"""

import numpy as np

from repro.baselines import DSSM, DSSMConfig
from repro.bench import bench_scale, build_lcrec_model, report
from repro.data import IntentionGenerator
from repro.eval import evaluate_intention_retrieval

METRICS = ("HR@5", "HR@10", "NDCG@5", "NDCG@10")


def run_figure(games_dataset, games_lcrec):
    scale = bench_scale()
    generator = IntentionGenerator(games_dataset.catalog,
                                   np.random.default_rng(42))
    test_examples = generator.test_intentions(games_dataset)
    test_examples = test_examples[:scale.max_eval_users]

    # DSSM baseline.
    train_intents = generator.training_intentions(games_dataset, per_user=2)
    dssm = DSSM([item.title for item in games_dataset.catalog],
                DSSMConfig(epochs=scale.epochs(30)),
                extra_texts=[e.text for e in train_intents])
    dssm.fit(train_intents)
    dssm_report = evaluate_intention_retrieval(
        lambda query: dssm.retrieve(query, top_k=10), test_examples)

    # LC-Rec zero-shot: tuned without the ITE task.
    zero_shot = build_lcrec_model(
        games_dataset, tasks=("seq", "mut", "asy", "per"))
    zero_report = evaluate_intention_retrieval(
        lambda query: zero_shot.recommend_for_intention(query, top_k=10),
        test_examples)

    lcrec_report = evaluate_intention_retrieval(
        lambda query: games_lcrec.recommend_for_intention(query, top_k=10),
        test_examples)

    rows = [f"{'model':<20} " + " ".join(f"{m:>8}" for m in METRICS)]
    for label, rep in (("LC-Rec (Zero-Shot)", zero_report),
                       ("DSSM", dssm_report),
                       ("LC-Rec", lcrec_report)):
        rows.append(f"{label:<20} "
                    + " ".join(f"{rep[m]:8.4f}" for m in METRICS))
    report("fig3_intention", "\n".join(rows))
    return dssm_report, zero_report, lcrec_report


def test_fig3(games_dataset, games_lcrec):
    dssm_report, zero_report, lcrec_report = run_figure(games_dataset, games_lcrec)
    num_items = games_dataset.num_items
    chance_hr10 = 10 / num_items
    # Shape: trained LC-Rec well above chance and above its zero-shot
    # variant on the headline metric.
    assert lcrec_report["HR@10"] > 2 * chance_hr10
    assert lcrec_report["HR@10"] >= zero_report["HR@10"]
