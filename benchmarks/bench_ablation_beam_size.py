"""Extension ablation: beam width vs full-ranking quality (Games).

The paper fixes beam size 20 for all generative models (Sec. IV-A3); this
ablation sweeps the beam width to show the quality/compute trade-off of
trie-constrained generation.  Expectation: HR@10 grows with beam width
and saturates near the paper's setting.
"""

from repro.bench import bench_scale, report
from repro.eval import evaluate_generative_model

BEAMS = (5, 10, 20, 40)


def run_sweep(games_dataset, games_lcrec):
    scale = bench_scale()
    limit = min(scale.max_eval_users, 80)
    histories = games_dataset.split.test_histories[:limit]
    targets = games_dataset.split.test_targets[:limit]
    rows = [f"{'beam':>5} {'HR@5':>8} {'HR@10':>8} {'NDCG@10':>8}"]
    by_beam = {}
    for beam in BEAMS:
        games_lcrec.config.beam_size = beam
        metric_report = evaluate_generative_model(
            lambda history: games_lcrec.recommend(history, top_k=10),
            histories, targets)
        by_beam[beam] = metric_report
        rows.append(f"{beam:>5} {metric_report['HR@5']:8.4f} "
                    f"{metric_report['HR@10']:8.4f} "
                    f"{metric_report['NDCG@10']:8.4f}")
    games_lcrec.config.beam_size = 20  # restore the paper's setting
    report("ablation_beam_size", "\n".join(rows))
    return by_beam


def test_beam_size(games_dataset, games_lcrec):
    by_beam = run_sweep(games_dataset, games_lcrec)
    # Wider beams can only add candidates: HR@10 must not degrade much.
    assert by_beam[40]["HR@10"] >= by_beam[5]["HR@10"] - 1e-9
