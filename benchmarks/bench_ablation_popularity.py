"""Extension ablation: head-vs-tail robustness of semantic indices (Games).

The paper motivates learned semantic indices with cold-start/OOV
robustness (Sec. III-B1): tail items should borrow statistics from
similar popular items through shared codewords, while pure-ID models
starve.  This bench buckets test users by the *target item's* training
popularity and compares LC-Rec with SASRec per bucket.  The retrieval tier
built from the same model (the lane that answers shed and cold-start
requests, ``docs/retrieval.md``) and the popularity prefix ride along: a
degraded answer must not lose to serving the most popular items.
"""

from repro.baselines import BaselineTrainer, BaselineTrainerConfig, SASRec
from repro.bench import bench_scale, report
from repro.eval import evaluate_by_popularity, hit_ratio_at_k, item_popularity
from repro.eval.ranking import rankings_from_scores
from repro.retrieval import RetrievalRecommender


def run_buckets(games_dataset, games_lcrec):
    scale = bench_scale()
    limit = min(scale.max_eval_users, games_dataset.num_users)
    histories = games_dataset.split.test_histories[:limit]
    targets = games_dataset.split.test_targets[:limit]
    popularity = item_popularity(games_dataset.split.train_sequences,
                                 games_dataset.num_items)

    sasrec = SASRec(games_dataset.num_items, dim=48,
                    max_len=games_dataset.config.max_seq_len)
    BaselineTrainer(BaselineTrainerConfig(
        epochs=scale.epochs(30))).fit(sasrec, games_dataset)
    sasrec_ranked = rankings_from_scores(sasrec.score_all(histories), 10)
    lcrec_ranked = [games_lcrec.recommend(h, top_k=10) for h in histories]
    retriever = RetrievalRecommender.from_lcrec(games_lcrec)
    retrieval_ranked = retriever.recommend_many(histories, top_k=10)
    popularity_ranked = [retriever.recommend([], top_k=10)] * len(histories)  # cold start

    rows = []
    reports = {}
    overall = {}
    for label, ranked in (("SASRec", sasrec_ranked),
                          ("LC-Rec", lcrec_ranked),
                          ("Retrieval", retrieval_ranked),
                          ("Popularity", popularity_ranked)):
        bucket_report = evaluate_by_popularity(ranked, targets, popularity,
                                               num_buckets=3, k=10)
        reports[label] = bucket_report
        overall[label] = hit_ratio_at_k(ranked, targets, 10)
        rows.append(f"--- {label} (overall HR@10 {overall[label]:.4f}) ---")
        rows.extend(bucket_report.rows())
    report("ablation_popularity_buckets", "\n".join(rows))
    return reports, overall


def test_popularity_buckets(games_dataset, games_lcrec):
    reports, overall = run_buckets(games_dataset, games_lcrec)
    # Every ranker sees per-bucket HR in [0, 1]; the tail bucket exists.
    for bucket_report in reports.values():
        assert bucket_report.bucket_sizes[0] > 0
    # At tiny scale the catalogs are too small for the gap to be stable.
    if bench_scale().name != "tiny":
        assert overall["Retrieval"] >= overall["Popularity"]
