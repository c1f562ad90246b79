"""Tests for TIGER, P5-CID, DSSM and the generative machinery."""

import numpy as np
import pytest

from repro.baselines import (
    DSSM,
    DSSMConfig,
    IndexTokenSpace,
    P5CID,
    P5CIDConfig,
    TIGER,
    TIGERConfig,
    build_cooccurrence_matrix,
    collaborative_index_set,
    spectral_cluster,
)
from repro.baselines.generative import NUM_SPECIALS
from repro.core.indexer import build_random_index_set
from repro.data import IntentionGenerator


class TestIndexTokenSpace:
    def test_token_ids_disjoint_across_levels(self, rng):
        index_set = build_random_index_set(20, 3, 4, rng)
        space = IndexTokenSpace(index_set)
        level_ranges = []
        for level in range(3):
            offset = space.level_offsets[level]
            level_ranges.append(set(range(offset, offset + 4)))
        assert level_ranges[0].isdisjoint(level_ranges[1])
        assert level_ranges[1].isdisjoint(level_ranges[2])
        assert space.vocab_size == NUM_SPECIALS + 12

    def test_history_ids_concatenate(self, rng):
        index_set = build_random_index_set(20, 3, 4, rng)
        space = IndexTokenSpace(index_set)
        ids = space.history_ids([0, 1])
        assert ids == list(space.item_tokens(0)) + list(space.item_tokens(1))

    def test_trie_resolves_items(self, rng):
        index_set = build_random_index_set(20, 3, 4, rng)
        space = IndexTokenSpace(index_set)
        trie = space.build_trie()
        for item in range(20):
            assert trie.item_at(space.item_tokens(item)) == item

    def test_conflicting_index_set_rejected(self):
        from repro.quantization import ItemIndexSet

        dupes = ItemIndexSet(np.array([[0, 0], [0, 0]]), [1, 1])
        with pytest.raises(ValueError):
            IndexTokenSpace(dupes)


class TestCollaborativeIndexing:
    def test_cooccurrence_symmetry(self, tiny_dataset):
        matrix = build_cooccurrence_matrix(tiny_dataset)
        np.testing.assert_allclose(matrix, matrix.T)
        assert (np.diag(matrix) == 0).all()

    def test_spectral_cluster_labels(self, rng):
        # Two disconnected cliques should be separated.
        block = np.ones((5, 5)) - np.eye(5)
        adjacency = np.zeros((10, 10))
        adjacency[:5, :5] = block
        adjacency[5:, 5:] = block
        labels = spectral_cluster(adjacency, 2, rng)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_collaborative_index_unique(self, tiny_dataset):
        index_set = collaborative_index_set(tiny_dataset, num_levels=2,
                                            branch=4)
        assert index_set.is_unique()
        assert index_set.num_levels == 3  # 2 cluster levels + enumeration

    def test_cooccurring_items_share_prefix(self, tiny_dataset):
        """Items that co-occur heavily should land in the same top cluster
        more often than random pairs."""
        matrix = build_cooccurrence_matrix(tiny_dataset)
        index_set = collaborative_index_set(tiny_dataset, num_levels=2,
                                            branch=4, seed=1)
        level0 = index_set.codes[:, 0]
        strong_pairs = np.argwhere(matrix >= np.quantile(matrix[matrix > 0],
                                                         0.9))
        strong_same = np.mean([level0[a] == level0[b]
                               for a, b in strong_pairs])
        rng = np.random.default_rng(0)
        random_pairs = rng.integers(0, len(level0), size=(200, 2))
        random_same = np.mean([level0[a] == level0[b]
                               for a, b in random_pairs])
        assert strong_same > random_same


class TestTIGER:
    @pytest.fixture()
    def tiger(self, tiny_dataset, rng):
        index_set = build_random_index_set(tiny_dataset.num_items, 3, 8, rng)
        model = TIGER(index_set, TIGERConfig(epochs=3, dim=16, beam_size=10))
        model.fit(tiny_dataset)
        return model

    def test_recommend_legal_unique_items(self, tiger, tiny_dataset):
        ranked = tiger.recommend(tiny_dataset.split.test_histories[0],
                                 top_k=10)
        assert len(ranked) == len(set(ranked))
        assert all(0 <= i < tiny_dataset.num_items for i in ranked)

    def test_recommend_always_returns_top_k(self, tiger, tiny_dataset):
        """Regression: a beam that dedups short must be widened/backfilled
        so ranking metrics never see truncated lists."""
        num_items = tiny_dataset.num_items
        for top_k in (1, 10, num_items, num_items + 7):
            ranked = tiger.recommend(tiny_dataset.split.test_histories[0],
                                     top_k=top_k)
            assert len(ranked) == min(top_k, num_items)
            assert len(ranked) == len(set(ranked))
        # top_k beyond the catalog covers every item exactly once.
        everything = tiger.recommend(tiny_dataset.split.test_histories[0],
                                     top_k=num_items + 7)
        assert sorted(everything) == list(range(num_items))

    def test_training_loss_decreases(self, tiny_dataset, rng):
        index_set = build_random_index_set(tiny_dataset.num_items, 3, 8, rng)
        model = TIGER(index_set, TIGERConfig(epochs=6, dim=16))
        losses = model.fit(tiny_dataset)
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("max_history", [0, -1])
    def test_history_length_below_one_rejected(self, tiny_dataset, rng, max_history):
        index_set = build_random_index_set(tiny_dataset.num_items, 3, 8, rng)
        with pytest.raises(ValueError, match="max_history"):
            TIGER(index_set, TIGERConfig(max_history=max_history))

    def test_score_all_not_supported(self, tiger):
        with pytest.raises(NotImplementedError):
            tiger.score_all([[0]])


class TestP5CID:
    @pytest.fixture(scope="class")
    def p5cid(self, tiny_dataset):
        model = P5CID(tiny_dataset, P5CIDConfig(epochs=3, dim=16,
                                                cluster_levels=2, branch=4,
                                                beam_size=10))
        model.losses = model.fit(tiny_dataset)
        return model

    def test_fit_and_recommend(self, p5cid, tiny_dataset):
        assert p5cid.losses[-1] < p5cid.losses[0]
        ranked = p5cid.recommend(tiny_dataset.split.test_histories[0],
                                 top_k=5)
        assert len(ranked) == 5
        assert all(0 <= i < tiny_dataset.num_items for i in ranked)

    def test_recommend_many_matches_per_request(self, p5cid, tiny_dataset):
        """The batched engine route returns per-request results verbatim."""
        histories = [list(h) for h in tiny_dataset.split.test_histories[:5]]
        batched = p5cid.recommend_many(histories, top_k=5)
        assert batched == [p5cid.recommend(h, top_k=5) for h in histories]

    def test_recommend_always_returns_top_k(self, p5cid, tiny_dataset):
        """Regression: short rankings are widened/backfilled to top_k."""
        num_items = tiny_dataset.num_items
        history = list(tiny_dataset.split.test_histories[0])
        for top_k in (1, 10, num_items, num_items + 3):
            ranked = p5cid.recommend(history, top_k=top_k)
            assert len(ranked) == min(top_k, num_items)
            assert len(ranked) == len(set(ranked))
        everything = p5cid.recommend(history, top_k=num_items + 3)
        assert sorted(everything) == list(range(num_items))


class TestDSSM:
    def test_retrieval_learns_text_matching(self, tiny_dataset):
        generator = IntentionGenerator(tiny_dataset.catalog,
                                       np.random.default_rng(3))
        train = generator.training_intentions(tiny_dataset, per_user=2)
        titles = [item.title for item in tiny_dataset.catalog]
        model = DSSM(titles, DSSMConfig(epochs=10, dim=24),
                     extra_texts=[e.text for e in train])
        model.fit(train)
        test = generator.test_intentions(tiny_dataset)[:30]
        hits = sum(1 for example in test
                   if example.item_id in model.retrieve(example.text, 10))
        # Random chance would be ~25% on 40 items; text matching much higher.
        assert hits / len(test) > 0.4

    def test_retrieve_returns_valid_ids(self, tiny_dataset):
        titles = [item.title for item in tiny_dataset.catalog]
        model = DSSM(titles, DSSMConfig(epochs=1))
        ranked = model.retrieve("anything at all", top_k=7)
        assert len(ranked) == 7
        assert all(0 <= i < len(titles) for i in ranked)

    def test_fit_requires_examples(self, tiny_dataset):
        titles = [item.title for item in tiny_dataset.catalog]
        model = DSSM(titles)
        with pytest.raises(ValueError):
            model.fit([])

    def test_item_vector_cache_invalidated_by_fit(self, tiny_dataset):
        generator = IntentionGenerator(tiny_dataset.catalog,
                                       np.random.default_rng(4))
        train = generator.training_intentions(tiny_dataset, per_user=1)
        titles = [item.title for item in tiny_dataset.catalog]
        model = DSSM(titles, DSSMConfig(epochs=1))
        model.retrieve("warm the cache", top_k=3)
        assert model._item_vectors is not None
        model.fit(train)
        assert model._item_vectors is None
