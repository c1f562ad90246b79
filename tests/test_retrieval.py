"""Hybrid retrieval tier: clustered-KNN parity, trie narrowing, fallbacks.

Acceptance contracts pinned here:

* clustered KNN is an *accelerator*, not an approximation of the oracle
  it is configured to match: with one cluster — or with every cluster
  probed — it ranks identically to brute-force dot-product KNN, and the
  same build is deterministic under a fixed seed;
* a narrowed-trie decode ranks the retrieved candidate set *identically*
  to a full constrained decode restricted to those candidates post hoc,
  for all three engines (LC-Rec, P5-CID, TIGER), batch sizes 1/4/16 and
  prefix cache on and off — narrowing shrinks the per-step candidate
  unions, never the math;
* the retrieval recommender honours the serving result contract
  (``min(top_k, num_items)`` distinct ids, deterministic popularity
  cold start) that lets it serve as the degradation fast lane.
"""

import numpy as np
import pytest

from repro.baselines import P5CID, P5CIDConfig, TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set
from test_live_width import Watched, assert_same_hypotheses, narrowed_recommend

from repro.llm import decode_prefill, ranked_item_ids
from repro.quantization import IndexTrie
from repro.retrieval import (
    ClusteredKNNConfig,
    ClusteredKNNIndex,
    HybridRecommender,
    RetrievalRecommender,
    brute_force_topk,
    rank_by_score,
)
from repro.serving import (
    LCRecEngine,
    MicroBatcherConfig,
    P5CIDEngine,
    RecommendationService,
    TIGEREngine,
)

from helpers import decode_prompts


# ----------------------------------------------------------------------
# Fixtures: shared vectors and one fitted model per generative backend
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(42)
    return rng.standard_normal((60, 12)).astype(np.float32)


@pytest.fixture(scope="module")
def tiger(tiny_dataset):
    index_set = build_random_index_set(tiny_dataset.num_items, 3, 8, np.random.default_rng(0))
    model = TIGER(index_set, TIGERConfig(epochs=3, dim=16, beam_size=10))
    model.fit(tiny_dataset)
    return model


@pytest.fixture(scope="module")
def p5cid(tiny_dataset):
    model = P5CID(
        tiny_dataset,
        P5CIDConfig(epochs=3, dim=16, cluster_levels=2, branch=4, beam_size=10),
    )
    model.fit(tiny_dataset)
    return model


def make_engine(name, tiny_lcrec, tiger, p5cid, cache=False):
    if name == "lcrec":
        return LCRecEngine(tiny_lcrec, prefix_cache=cache or None)
    if name == "p5cid":
        return P5CIDEngine(p5cid, prefix_cache=cache or None)
    assert not cache, "TIGER has no prefix cache"
    return TIGEREngine(tiger)


# ----------------------------------------------------------------------
# Clustered KNN: exact-parity oracle suite
# ----------------------------------------------------------------------
class TestRankByScore:
    def test_descending_with_id_tiebreak(self):
        ids = np.array([7, 3, 9, 1])
        scores = np.array([0.5, 1.0, 0.5, -1.0])
        assert rank_by_score(ids, scores, 4).tolist() == [3, 7, 9, 1]

    def test_top_k_clamps_to_available(self):
        ids = np.array([2, 0])
        scores = np.array([1.0, 2.0])
        assert rank_by_score(ids, scores, 10).tolist() == [0, 2]


class TestClusteredKNNParity:
    def test_single_cluster_matches_brute_force(self, vectors):
        """n_clusters=1 degenerates to exact KNN: identical rankings."""
        index = ClusteredKNNIndex(vectors, ClusteredKNNConfig(n_clusters=1, n_probe=1))
        queries = np.random.default_rng(7).standard_normal((20, vectors.shape[1]))
        for query in queries.astype(np.float32):
            for top_k in (1, 5, len(vectors)):
                exact = brute_force_topk(index.vectors, query, top_k)
                assert index.search(query, top_k).tolist() == exact.tolist()

    @pytest.mark.parametrize("n_clusters", [2, 5, 16])
    def test_full_probe_matches_brute_force(self, vectors, n_clusters):
        """Probing every cluster covers the whole catalog: exact again."""
        index = ClusteredKNNIndex(vectors, ClusteredKNNConfig(n_clusters=n_clusters))
        queries = np.random.default_rng(11).standard_normal((10, vectors.shape[1]))
        for query in queries.astype(np.float32):
            exact = brute_force_topk(index.vectors, query, 10)
            got = index.search(query, 10, n_probe=index.num_clusters)
            assert got.tolist() == exact.tolist()

    def test_seeded_build_is_deterministic(self, vectors):
        config = ClusteredKNNConfig(n_clusters=6, n_probe=2, seed=3)
        a, b = ClusteredKNNIndex(vectors, config), ClusteredKNNIndex(vectors, config)
        assert len(a.members) == len(b.members)
        assert all(np.array_equal(m_a, m_b) for m_a, m_b in zip(a.members, b.members))
        query = vectors[5]
        assert a.search(query, 8).tolist() == b.search(query, 8).tolist()
        assert a.search(query, 8).tolist() == a.search(query, 8).tolist()

    def test_probe_widening_guarantees_top_k(self, vectors):
        """Asking for more neighbours than the probed clusters hold widens
        the probe deterministically instead of returning short."""
        index = ClusteredKNNIndex(vectors, ClusteredKNNConfig(n_clusters=16, n_probe=1))
        ranked = index.search(vectors[0], len(vectors))
        assert len(ranked) == len(vectors)
        assert sorted(ranked.tolist()) == list(range(len(vectors)))

    def test_validation(self, vectors):
        with pytest.raises(ValueError, match="n_clusters"):
            ClusteredKNNConfig(n_clusters=0)
        with pytest.raises(ValueError, match="n_probe"):
            ClusteredKNNConfig(n_probe=0)
        index = ClusteredKNNIndex(vectors, ClusteredKNNConfig(n_clusters=4))
        with pytest.raises(ValueError, match="query"):
            index.search(np.zeros((2, vectors.shape[1])), 5)
        with pytest.raises(ValueError, match="top_k"):
            index.search(vectors[0], 0)

    @pytest.mark.parametrize("top_k", [True, 2.5, 0, -1, "3"])
    def test_top_k_is_a_positive_int_everywhere(self, vectors, top_k):
        # The serving rule (``check_top_k``): ``True`` used to rank one item
        # and 2.5 to raise a bare TypeError from a slice.
        index = ClusteredKNNIndex(vectors, ClusteredKNNConfig(n_clusters=4))
        with pytest.raises(ValueError, match="top_k"):
            index.search(vectors[0], top_k)
        with pytest.raises(ValueError, match="top_k"):
            RetrievalRecommender(index).recommend([3, 8], top_k)


class TestRetrievalRecommender:
    def make(self, vectors, popularity=None):
        index = ClusteredKNNIndex(vectors, ClusteredKNNConfig(n_clusters=5, n_probe=2))
        return RetrievalRecommender(index, popularity=popularity)

    def test_result_contract(self, vectors):
        rec = self.make(vectors)
        for top_k in (1, 10, len(vectors), len(vectors) + 9):
            ranked = rec.recommend([3, 8, 20], top_k)
            assert len(ranked) == min(top_k, len(vectors))
            assert len(set(ranked)) == len(ranked)

    def test_cold_start_is_popularity_order(self, vectors):
        counts = np.zeros(len(vectors), dtype=np.int64)
        counts[[9, 4, 30]] = [5, 9, 2]
        rec = self.make(vectors, popularity=counts)
        assert rec.recommend([], 5) == [4, 9, 30, 0, 1]
        # Fully-unknown histories are cold starts too.
        assert rec.recommend([len(vectors) + 5, -1], 5) == [4, 9, 30, 0, 1]

    def test_out_of_catalog_items_ignored_in_profile(self, vectors):
        rec = self.make(vectors)
        assert rec.recommend([3, 10**6], 5) == rec.recommend([3], 5)

    def test_popularity_shape_validated(self, vectors):
        with pytest.raises(ValueError, match="popularity"):
            self.make(vectors, popularity=np.zeros(3, dtype=np.int64))

    def test_from_lcrec(self, tiny_lcrec):
        rec = RetrievalRecommender.from_lcrec(tiny_lcrec, ClusteredKNNConfig(n_clusters=4))
        assert rec.num_items == tiny_lcrec.dataset.num_items
        ranked = rec.recommend([0, 1, 2], 10)
        assert len(ranked) == min(10, rec.num_items)
        assert len(set(ranked)) == len(ranked)


# ----------------------------------------------------------------------
# Trie narrowing: the candidate-selection constraint
# ----------------------------------------------------------------------
class TestSubtrie:
    def test_keeps_only_candidate_sequences(self):
        trie = IndexTrie({0: (10, 14), 1: (10, 15), 2: (11, 14), 3: (11, 16)})
        narrow = trie.subtrie([1, 3])
        assert narrow.num_items == 2
        assert narrow.all_sequences() == {1: (10, 15), 3: (11, 16)}
        assert narrow.allowed_tokens(()).tolist() == [10, 11]
        assert narrow.allowed_tokens((10,)).tolist() == [15]
        # Independence: the parent still knows everything.
        assert trie.allowed_tokens((10,)).tolist() == [14, 15]

    def test_unknown_item_raises(self):
        trie = IndexTrie({0: (10, 14)})
        with pytest.raises(KeyError, match="99"):
            trie.subtrie([99])

    def test_empty_candidate_set_raises(self):
        trie = IndexTrie({0: (10, 14)})
        with pytest.raises(ValueError, match="no items"):
            trie.subtrie([])


class TestNarrowNodeMask:
    """A narrowed row carries its candidate items as a node mask of the decode trie."""

    def test_marks_candidate_paths(self):
        trie = IndexTrie({0: (10, 14), 1: (10, 15), 2: (11, 14), 3: (11, 16)})
        mask = trie.path_mask([1, 3])
        assert mask.shape == (trie.size,)
        marked = {trie.prefix(node) for node in np.flatnonzero(mask).tolist()}
        assert marked == {(), (10,), (10, 15), (11,), (11, 16)}

    def test_unknown_or_no_items_rejected(self):
        trie = IndexTrie({0: (10, 14), 1: (10, 15)})
        with pytest.raises(KeyError, match="99"):
            trie.path_mask([0, 99])
        with pytest.raises(ValueError, match="at least one"):
            trie.path_mask([])


def constrained_logprob(lm, prompt, sequence, trie):
    """Exact full-trie constrained score of one item sequence.

    Per-level logits renormalised over the trie's allowed sets — the
    semantics every constrained decode in the repo implements — computed
    directly, with no beam search in the loop.
    """
    full = np.asarray(list(prompt) + list(sequence), dtype=np.int64)[None, :]
    logits = lm.forward(full).data[0]
    total = 0.0
    for level, token in enumerate(sequence):
        allowed = trie.allowed_tokens(tuple(sequence[:level]))
        raw = logits[len(prompt) - 1 + level, allowed]
        shift = raw.max()
        logp = raw - (shift + np.log(np.exp(raw - shift).sum()))
        total += float(logp[list(allowed).index(token)])
    return total


def restricted_oracle(engine, histories, candidates, top_k):
    """The full-decode ranking of the candidate set, computed without
    narrowing.

    For engines whose full decode can enumerate the whole catalog (beam
    widened to ``num_items``) this is literally the exhaustive decode
    filtered to the candidates post hoc.  Decoder engines clamp beams to
    the LM vocabulary, which for small-vocab models (P5-CID) makes the
    engine-level "full" ranking part genuine, part deterministic
    backfill — there the candidates are ranked by their exact full-trie
    constrained scores instead, which is what an unclamped exhaustive
    decode would produce.
    """
    candidate_set = set(candidates)
    if isinstance(engine, TIGEREngine):
        full = engine.recommend_many(histories, top_k=engine.num_items)
        return [
            [item for item in ranking if item in candidate_set][:top_k] for ranking in full
        ]
    if engine.effective_beams(engine.num_items) == engine.num_items:
        prompts = [engine.encode_history(list(h)) for h in histories]
        hypotheses = decode_prompts(
            engine.lm,
            prompts,
            engine.trie,
            beam_size=engine.num_items,
        )
        full = [ranked_item_ids(hyps, engine.num_items) for hyps in hypotheses]
        return [
            [item for item in ranking if item in candidate_set][:top_k] for ranking in full
        ]
    sequences = engine.trie.all_sequences()
    rankings = []
    for history in histories:
        prompt = engine.encode_history(list(history))
        scored = sorted(
            (-constrained_logprob(engine.lm, prompt, sequences[item], engine.trie), item)
            for item in candidates
        )
        rankings.append([item for _, item in scored][:top_k])
    return rankings


class TestNarrowedDecodeParity:
    """The tentpole invariant: narrowing is selection, never re-scoring."""

    @pytest.mark.parametrize("name", ["lcrec", "p5cid", "tiger"])
    @pytest.mark.parametrize("batch", [1, 4, 16])
    @pytest.mark.parametrize("cache", [False, True])
    def test_matches_full_decode_restricted(
        self, name, batch, cache, tiny_lcrec, tiny_dataset, tiger, p5cid
    ):
        if name == "tiger" and cache:
            pytest.skip("TIGER has no prefix cache")
        engine = make_engine(name, tiny_lcrec, tiger, p5cid, cache=cache)
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(batch)]
        candidates = sorted(range(0, tiny_dataset.num_items, 3))
        expected = restricted_oracle(engine, histories, candidates, len(candidates))
        assert narrowed_recommend(engine, histories, candidates, len(candidates)) == expected

    @pytest.mark.parametrize("name", ["lcrec", "tiger"])
    def test_sparser_candidates_match_restricted(
        self, name, tiny_lcrec, tiny_dataset, tiger, p5cid
    ):
        engine = make_engine(name, tiny_lcrec, tiger, p5cid)
        histories = [list(h) for h in tiny_dataset.split.test_histories[:4]]
        candidates = list(range(0, tiny_dataset.num_items, 4))
        got = narrowed_recommend(engine, histories, candidates, len(candidates))
        assert got == restricted_oracle(engine, histories, candidates, len(candidates))

    @pytest.mark.parametrize("name", ["lcrec", "tiger"])
    def test_fewer_candidate_paths_than_beams(self, name, tiny_lcrec, tiny_dataset, tiger, p5cid):
        # Three paths under a beam of at least ten: the decode steps at the
        # hypotheses that exist and still ranks them as the full decode does.
        engine = make_engine(name, tiny_lcrec, tiger, p5cid)
        histories = [list(h) for h in tiny_dataset.split.test_histories[:4]]
        candidates = [1, tiny_dataset.num_items // 2, tiny_dataset.num_items - 1]
        assert engine.request_beam_size(3) > len(candidates)
        got = narrowed_recommend(engine, histories, candidates, top_k=3)
        assert got == restricted_oracle(engine, histories, candidates, 3)

    def test_singleton_candidate_set(self, tiny_lcrec, tiny_dataset):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        histories = [list(tiny_dataset.split.test_histories[0])]
        assert narrowed_recommend(engine, histories, [5], top_k=1) == [[5]]

    # -- narrowing is per row: any mix of candidate sets shares a decode --
    @staticmethod
    def mixed_rows(engine, tiny_dataset):
        """Four requests: two wide candidate sets, one under a single first
        token (fewer level-0 continuations than its neighbours: the ``-inf``
        filler path) and one un-narrowed.  ``(histories, prompts, candidates)``."""
        sequences = engine.trie.all_sequences()
        by_first = {}
        for item in sorted(sequences):
            by_first.setdefault(sequences[item][0], []).append(item)
        assert len(by_first) > 1, "the fixture trie needs more than one first token"
        thin = min(by_first.values(), key=len)[:2]
        candidates = [list(range(0, engine.num_items, 5)), list(range(1, engine.num_items, 4)),
                      thin, None]
        histories = [list(h) for h in tiny_dataset.split.test_histories[:4]]
        return histories, [engine.encode_history(h) for h in histories], candidates

    def assert_mixed_decode(self, engine, tiny_dataset):
        """Decode the four rows as one cohort under the live-width checks:
        every row equals decoding it alone and, narrowed, its restricted
        oracle."""
        scorer = engine.model if isinstance(engine, TIGEREngine) else engine.lm
        histories, prompts, candidates = self.mixed_rows(engine, tiny_dataset)
        narrow = dict(zip(map(tuple, prompts), candidates))
        beams = engine.effective_beams(engine.num_items)
        results = Watched().decode(scorer, engine.trie, {0: prompts}, beams, narrow=narrow)
        assert len(results) == len(prompts)
        for history, prompt, chosen in zip(histories, prompts, candidates):
            alone = Watched().decode(scorer, engine.trie, {0: [prompt]}, beams, narrow=narrow)
            assert_same_hypotheses(results[tuple(prompt)], alone[tuple(prompt)])
            if chosen is not None:
                assert [h.item_id for h in results[tuple(prompt)]] == restricted_oracle(
                    engine, [history], chosen, len(chosen))[0]

    @pytest.mark.parametrize("name", ["lcrec", "p5cid", "tiger"])  # tiger: CrossBeamKVCache
    def test_mixed_candidate_sets_prefilled_together(
        self, name, tiny_lcrec, tiny_dataset, tiger, p5cid
    ):
        engine = make_engine(name, tiny_lcrec, tiger, p5cid)
        self.assert_mixed_decode(engine, tiny_dataset)
        # The thin row carried filler beside its neighbours' first tokens.
        _, prompts, candidates = self.mixed_rows(engine, tiny_dataset)
        state = decode_prefill(
            engine.model if name == "tiger" else engine.lm, prompts, engine.trie, beam_size=10,
            narrow=candidates)
        finite = np.isfinite(state.beam_scores).sum(axis=1)
        assert finite[2] == 1 and finite[2] < finite.max() == state.width
        assert np.isneginf(state.beam_scores[2, 1:state.width]).all()
        assert (engine.trie.depth[state.beam_nodes[2]] == 1).all()  # at the row's depth

    def test_narrow_must_match_prompts_one_to_one(self, tiny_lcrec, tiny_dataset):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        prompts = [engine.encode_history(list(h)) for h in tiny_dataset.split.test_histories[:2]]
        with pytest.raises(ValueError, match="one-to-one"):
            decode_prefill(engine.lm, prompts, engine.trie, beam_size=4, narrow=[None])

    def test_narrowed_continuous_serving_matches_oracle(self, tiny_lcrec, tiny_dataset):
        """Narrowed requests serve through the continuous loop."""
        candidates = list(range(0, tiny_dataset.num_items, 3))
        histories = [list(h) for h in tiny_dataset.split.test_histories[:5]]
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        expected = restricted_oracle(engine, histories, candidates, 5)

        class FixedCandidates(HybridRecommender):
            def candidates(self, history, top_k):
                return candidates

        hybrid = FixedCandidates(engine, RetrievalRecommender.from_lcrec(tiny_lcrec))
        with RecommendationService(
            engine, batcher=MicroBatcherConfig(max_batch_size=2), mode="continuous", hybrid=hybrid
        ) as service:
            pending = [service.submit(h, top_k=5) for h in histories]
            assert [p.result(timeout=60.0) for p in pending] == expected


# ----------------------------------------------------------------------
# The hybrid recommender: retrieval narrows, the decode re-ranks
# ----------------------------------------------------------------------
class TestHybridRecommender:
    @pytest.fixture()
    def retriever(self, tiny_lcrec):
        return RetrievalRecommender.from_lcrec(
            tiny_lcrec, ClusteredKNNConfig(n_clusters=4, n_probe=2)
        )

    def test_requires_narrowing_support(self, retriever):
        class NoNarrowing:
            supports_narrowing = False

        with pytest.raises(ValueError, match="narrowing"):
            HybridRecommender(NoNarrowing(), retriever)

    def test_ranking_is_narrowed_decode_of_candidates(self, tiny_lcrec, retriever, tiny_dataset):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        hybrid = HybridRecommender(engine, retriever, num_candidates=12)
        history = list(tiny_dataset.split.test_histories[0])
        candidates = hybrid.candidates(history, 5)
        expected = restricted_oracle(engine, [history], candidates, 5)[0]
        assert hybrid.recommend(history, top_k=5) == expected

    @pytest.mark.parametrize("top_k", [True, 2.5, 0])
    def test_top_k_is_a_positive_int_on_both_lanes(self, tiny_lcrec, retriever, top_k):
        # A cold start (``[]``) answers from retrieval alone: ``True`` used to rank one item.
        hybrid = HybridRecommender(LCRecEngine(tiny_lcrec, prefix_cache=None), retriever)
        for history in ([], [0, 1]):
            with pytest.raises(ValueError, match="top_k"):
                hybrid.recommend(history, top_k=top_k)
            assert len(hybrid.recommend(history, top_k=np.int64(3))) == 3

    def test_cold_start_routes_to_retrieval(self, tiny_lcrec, retriever):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        hybrid = HybridRecommender(engine, retriever)
        assert hybrid.recommend([], top_k=5) == retriever.recommend([], 5)

    @pytest.mark.parametrize("history", [[-1, 5], [True, 2], [40, 5], [5, 3.7]])
    def test_history_ids_checked_before_any_lane(self, tiny_lcrec, retriever, history):
        # -1 would render as item 39, True as 1; 40 and 3.7 would fail deep in a lookup.
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        assert engine.num_items == 40
        hybrid = HybridRecommender(engine, retriever)
        with pytest.raises(ValueError, match="is not an item id"):
            hybrid.recommend(history, top_k=5)
        with pytest.raises(ValueError, match="is not an item id"):
            hybrid.recommend_many([[1, 2], history], top_k=5)

    def test_batched_matches_per_row(self, tiny_lcrec, retriever, tiny_dataset):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        hybrid = HybridRecommender(engine, retriever, num_candidates=8)
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(6)] + [[]]
        batched = hybrid.recommend_many(histories, top_k=4)
        assert batched == [hybrid.recommend(h, top_k=4) for h in histories]

    def test_result_contract(self, tiny_lcrec, retriever, tiny_dataset):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        hybrid = HybridRecommender(engine, retriever, num_candidates=6)
        history = list(tiny_dataset.split.test_histories[0])
        for top_k in (1, 10, retriever.num_items):
            ranked = hybrid.recommend(history, top_k=top_k)
            assert len(ranked) == min(top_k, retriever.num_items)
            assert len(set(ranked)) == len(ranked)

    def test_backfill_extends_from_candidates_then_popularity(self, tiny_lcrec, retriever):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        hybrid = HybridRecommender(engine, retriever)
        ranked = hybrid.backfill([5], [5, 7, 9], top_k=6)
        assert ranked[:3] == [5, 7, 9]
        assert len(ranked) == 6
        assert len(set(ranked)) == 6
        popularity_tail = [
            int(item) for item in retriever.popularity_order if int(item) not in {5, 7, 9}
        ][:3]
        assert ranked[3:] == popularity_tail


class TestHybridServingParity:
    """The serving lane and the library call are one narrowing path: a
    ``hybrid=`` service returns ``hybrid.recommend``'s lists for every
    engine, in every serving mode."""

    @pytest.mark.parametrize("lane", ["flush", "deadline", "continuous"])
    @pytest.mark.parametrize("name", ["lcrec", "p5cid", "tiger"])
    def test_service_matches_library(self, name, lane, tiny_lcrec, tiny_dataset, tiger, p5cid):
        engine = make_engine(name, tiny_lcrec, tiger, p5cid)
        hybrid = HybridRecommender(engine, RetrievalRecommender.from_lcrec(tiny_lcrec),
                                   num_candidates=12)
        histories = [list(h) for h in tiny_dataset.split.test_histories[:6]] + [[]]
        expected = [hybrid.recommend(h, top_k=5) for h in histories]
        service = RecommendationService(
            engine, batcher=MicroBatcherConfig(max_batch_size=4), hybrid=hybrid,
            mode="deadline" if lane == "flush" else lane)
        if lane == "flush":
            assert service.recommend_many(histories, top_k=5) == expected
        else:
            with service:
                pending = [service.submit(h, top_k=5) for h in histories]
                assert [p.result(timeout=60.0) for p in pending] == expected
        assert service.stats.hybrid_narrowed == len(histories) - 1
        for history, ranking in zip(histories[:-1], expected):
            assert set(ranking) <= set(hybrid.candidates(history, 5))
