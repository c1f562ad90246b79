#!/usr/bin/env python
"""Analyses of one trained LC-Rec on Games that are not HR/NDCG tables.

* Fig. 3 — item prediction from simulated user-intention queries: DSSM
  (two-tower text retrieval), LC-Rec, and LC-Rec tuned without the
  intention task ("Zero-Shot").
* Table V — choosing the true next item over a language-similar, a
  collaboratively similar or a random negative: SASRec, the pretrained-only
  LM ("LLaMA"), a bigger language-only LM ("ChatGPT"), LC-Rec scoring
  titles and LC-Rec scoring item indices.
* Two extension ablations: beam width vs HR@10 (the paper fixes 20), and
  HR@10 per target-popularity bucket for SASRec, LC-Rec, the retrieval
  tier built from LC-Rec and the popularity ranking.

The models are the experiment harness's builds at the scale
``REPRO_SCALE`` names (``tiny`` | ``small`` | ``full``; default ``small``).
Every number here is recorded, not gated (docs/reproducing.md).

Run:  REPRO_SCALE=tiny PYTHONPATH=src python examples/games_analyses.py
"""

from typing import Callable, Sequence

import numpy as np

from repro.baselines import DSSM, DSSMConfig
from repro.bench import bench_scale, build_lcrec_model, scaled_dataset, train_traditional_baseline
from repro.core import templates as T
from repro.core.lcrec import LCRec
from repro.data import IntentionGenerator, ItemCatalog
from repro.eval import (
    evaluate_by_popularity,
    evaluate_generative_model_batched,
    evaluate_intention_retrieval,
    hit_ratio_at_k,
    item_popularity,
    mine_random_negatives,
    mine_similar_negatives,
    pairwise_choice_accuracy,
    rankings_from_scores,
)
from repro.llm import LMConfig, PretrainConfig, TinyLlama, pretrain_lm, sequence_logprob
from repro.retrieval import RetrievalRecommender
from repro.text import WordTokenizer

# Table V choosers: (history, candidate_a, candidate_b) -> the chosen item.
Chooser = Callable[[Sequence[int], int, int], int]

_TITLE_PROMPT = (
    "the user bought the following items in order : {history} . "
    "the next item the user needs is called answer :"
)


def score_model_chooser(model) -> Chooser:
    """Choose by the score model's logits over the two candidates (SASRec row)."""

    def choose(history, candidate_a, candidate_b):
        scores = model.score_all([list(history)])[0]
        return candidate_a if scores[candidate_a] >= scores[candidate_b] else candidate_b

    return choose


def lcrec_index_chooser(model: LCRec) -> Chooser:
    """Tuned LC-Rec scoring the candidates' item indices (the LC-Rec row)."""

    def choose(history, candidate_a, candidate_b):
        instruction = model.seq_instruction(list(history))
        score_a = model.response_logprob(instruction, model.index_set.index_text(candidate_a))
        score_b = model.response_logprob(instruction, model.index_set.index_text(candidate_b))
        return candidate_a if score_a >= score_b else candidate_b

    return choose


def lcrec_title_chooser(model: LCRec) -> Chooser:
    """Tuned LC-Rec scoring the candidates' titles ("LC-Rec (Title)")."""

    def choose(history, candidate_a, candidate_b):
        history = list(history)[-model.config.tasks.max_history:]
        history_text = " , ".join(model.index_set.index_text(i) for i in history)
        instruction = T.ASY_INDEX_TO_TITLE_TEMPLATES[0].format(history=history_text)
        catalog = model.dataset.catalog
        score_a = model.response_logprob(instruction, catalog[candidate_a].title)
        score_b = model.response_logprob(instruction, catalog[candidate_b].title)
        return candidate_a if score_a >= score_b else candidate_b

    return choose


def pretrained_lm_chooser(
    lm: TinyLlama, tokenizer: WordTokenizer, catalog: ItemCatalog, max_history: int = 8
) -> Chooser:
    """A language-only LM prompted with the title history ("LLaMA" / "ChatGPT").

    User behaviour is verbalised as a title sequence and the model picks
    the likelier next title: no collaborative signal.
    """

    def choose(history, candidate_a, candidate_b):
        titles = " , ".join(catalog[i].title for i in list(history)[-max_history:])
        prompt = [tokenizer.vocab.bos_id] + tokenizer.encode(_TITLE_PROMPT.format(history=titles))
        score_a = sequence_logprob(lm, prompt, tokenizer.encode(catalog[candidate_a].title))
        score_b = sequence_logprob(lm, prompt, tokenizer.encode(catalog[candidate_b].title))
        return candidate_a if score_a >= score_b else candidate_b

    return choose


def print_table(title, columns, rows) -> None:
    print(f"\n{title}\n{'model':<20} " + " ".join(f"{c:>18}" for c in columns))
    for label, values in rows.items():
        print(f"{label:<20} " + " ".join(f"{values[c]:18.4f}" for c in columns))


def figure3(dataset, model, scale) -> None:
    generator = IntentionGenerator(dataset.catalog, np.random.default_rng(42))
    queries = generator.test_intentions(dataset)[: scale.max_eval_users]
    train_intents = generator.training_intentions(dataset, per_user=2)
    dssm = DSSM(
        [item.title for item in dataset.catalog],
        DSSMConfig(epochs=scale.epochs(30)),
        extra_texts=[e.text for e in train_intents],
    )
    dssm.fit(train_intents)
    zero_shot = build_lcrec_model(dataset, scale, tasks=("seq", "mut", "asy", "per"))
    rankers = {
        "LC-Rec (Zero-Shot)": lambda q: zero_shot.recommend_for_intention(q, top_k=10),
        "DSSM": lambda q: dssm.retrieve(q, top_k=10),
        "LC-Rec": lambda q: model.recommend_for_intention(q, top_k=10),
    }
    rows = {label: evaluate_intention_retrieval(rank, queries) for label, rank in rankers.items()}
    print_table("Fig. 3: intention queries", ("HR@5", "HR@10", "NDCG@5", "NDCG@10"), rows)
    print(f"chance HR@10: {10 / dataset.num_items:.4f}")


def table5(dataset, model, sasrec, scale, histories, targets) -> None:
    # "ChatGPT": a bigger language-only LM, pretrained longer, never tuned.
    tokenizer = model.tokenizer
    chatgpt = TinyLlama(
        LMConfig(
            vocab_size=len(tokenizer.vocab), dim=96, num_layers=3, num_heads=4,
            ffn_hidden=256, max_seq_len=256, seed=11,
        )
    )
    pretrain_lm(
        chatgpt, tokenizer, dataset.catalog.texts(),
        PretrainConfig(steps=scale.epochs(600, minimum=150), batch_size=16, seq_len=64, seed=11),
    )
    chatgpt.eval()
    negatives = {
        "Language Neg.": mine_similar_negatives(model.item_embeddings, targets),
        "Collaborative Neg.": mine_similar_negatives(sasrec.item_embedding_matrix(), targets),
        "Random Neg.": mine_random_negatives(
            dataset.num_items, targets, np.random.default_rng(5)
        ),
    }
    choosers = {
        "SASRec": score_model_chooser(sasrec),
        "LLaMA": pretrained_lm_chooser(model.pretrained_lm(), tokenizer, dataset.catalog),
        "ChatGPT": pretrained_lm_chooser(chatgpt, tokenizer, dataset.catalog),
        "LC-Rec (Title)": lcrec_title_chooser(model),
        "LC-Rec": lcrec_index_chooser(model),
    }
    rows = {
        label: {
            column: pairwise_choice_accuracy(pairs, histories, chooser)
            for column, pairs in negatives.items()
        }
        for label, chooser in choosers.items()
    }
    print_table("Table V: choice accuracy against similar negatives", list(negatives), rows)


def beam_width(model, histories, targets) -> None:
    print("\nextension: beam width vs quality\n beam     HR@5    HR@10  NDCG@10")
    paper_beam = model.config.beam_size
    for beam in (5, 10, 20, 40):
        model.config.beam_size = beam
        report = evaluate_generative_model_batched(
            lambda batch: model.recommend_many(batch, top_k=10), histories, targets
        )
        print(f"{beam:>5} {report['HR@5']:8.4f} {report['HR@10']:8.4f} {report['NDCG@10']:8.4f}")
    model.config.beam_size = paper_beam


def popularity_buckets(dataset, model, sasrec, histories, targets) -> None:
    popularity = item_popularity(dataset.split.train_sequences, dataset.num_items)
    retriever = RetrievalRecommender.from_lcrec(model)
    rankings = {
        "SASRec": rankings_from_scores(sasrec.score_all(histories), 10),
        "LC-Rec": model.recommend_many(histories, top_k=10),
        "Retrieval": retriever.recommend_many(histories, top_k=10),
        "Popularity": [retriever.recommend([], top_k=10)] * len(histories),
    }
    print("\nextension: HR@10 by target popularity")
    for label, ranked in rankings.items():
        print(f"--- {label} (overall HR@10 {hit_ratio_at_k(ranked, targets, 10):.4f}) ---")
        print("\n".join(evaluate_by_popularity(ranked, targets, popularity, k=10).rows()))


def main() -> None:
    scale = bench_scale()
    dataset = scaled_dataset("games", scale)
    print(f"games at scale {scale.name}: {dataset.num_users} users, {dataset.num_items} items")
    model = build_lcrec_model(dataset, scale)
    sasrec = train_traditional_baseline("SASRec", dataset, scale)
    limit = min(scale.max_eval_users, dataset.num_users)
    histories = [list(h) for h in dataset.split.test_histories[:limit]]
    targets = list(dataset.split.test_targets[:limit])

    figure3(dataset, model, scale)
    table5(dataset, model, sasrec, scale, histories, targets)
    beam_width(model, histories, targets)
    popularity_buckets(dataset, model, sasrec, histories, targets)


if __name__ == "__main__":
    main()
