"""Tests for index construction, conflict resolution and the trie."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import (
    IndexConflictError,
    IndexTrie,
    ItemIndexSet,
    count_conflicts,
    resolve_conflicts_extra_level,
    resolve_conflicts_usm,
)
from repro.text import WordTokenizer


class TestItemIndexSet:
    def make(self):
        codes = np.array([[0, 1], [0, 2], [1, 0]])
        return ItemIndexSet(codes, [2, 3])

    def test_token_strings(self):
        index_set = self.make()
        assert index_set.token_strings(0) == ("<a_0>", "<b_1>")

    def test_index_text(self):
        assert self.make().index_text(2) == "<a_1><b_0>"

    def test_all_token_strings_cover_space(self):
        tokens = self.make().all_token_strings()
        assert tokens == ["<a_0>", "<a_1>", "<b_0>", "<b_1>", "<b_2>"]

    def test_uniqueness_check(self):
        assert self.make().is_unique()
        dupes = ItemIndexSet(np.array([[0, 1], [0, 1]]), [1, 2])
        assert not dupes.is_unique()

    def test_code_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ItemIndexSet(np.array([[5]]), [3])

    def test_register_and_trie_roundtrip(self):
        index_set = self.make()
        tokenizer = WordTokenizer(WordTokenizer.build_vocab(["hello world"]))
        index_set.register(tokenizer)
        trie = index_set.build_trie(tokenizer)
        assert trie.num_items == 3
        for item in range(3):
            ids = index_set.token_ids(item, tokenizer)
            assert trie.item_at(ids) == item

    def test_token_ids_in_extension_region(self):
        index_set = self.make()
        tokenizer = WordTokenizer(WordTokenizer.build_vocab(["some text"]))
        index_set.register(tokenizer)
        for item in range(3):
            for token_id in index_set.token_ids(item, tokenizer):
                assert token_id >= tokenizer.vocab.base_size


class TestConflictCounting:
    def test_counts_items_in_groups(self):
        codes = np.array([[0, 0], [0, 0], [0, 1], [1, 1], [1, 1], [1, 1]])
        assert count_conflicts(codes) == 5

    def test_zero_when_unique(self):
        assert count_conflicts(np.array([[0], [1], [2]])) == 0


class TestExtraLevelResolution:
    def test_appends_enumeration(self):
        codes = np.array([[0, 0], [0, 0], [1, 1]])
        resolved, extra_size = resolve_conflicts_extra_level(codes)
        assert resolved.shape == (3, 3)
        assert extra_size == 2
        assert count_conflicts(resolved) == 0

    def test_no_conflicts_yields_zero_level(self):
        codes = np.array([[0, 0], [0, 1]])
        resolved, extra_size = resolve_conflicts_extra_level(codes)
        assert extra_size == 1
        np.testing.assert_array_equal(resolved[:, -1], [0, 0])


def _fake_quantization(codes, latent_dim=4, seed=0):
    """Residuals/codebooks consistent with given greedy codes."""
    rng = np.random.default_rng(seed)
    n, levels = codes.shape
    codebooks = [rng.standard_normal((8, latent_dim)).astype(np.float32) * 2
                 for _ in range(levels)]
    level_residuals = rng.standard_normal((n, levels, latent_dim)).astype(
        np.float32)
    return level_residuals, codebooks


class TestUSMResolution:
    def test_resolves_simple_conflicts(self):
        codes = np.array([[0, 1, 2], [0, 1, 2], [0, 1, 3]])
        level_residuals, codebooks = _fake_quantization(codes)
        resolved = resolve_conflicts_usm(codes, level_residuals, codebooks)
        assert count_conflicts(resolved) == 0
        # Prefixes of non-spilled items stay intact.
        np.testing.assert_array_equal(resolved[:, :2], codes[:, :2])

    def test_untouched_when_no_conflicts(self):
        codes = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 0]])
        level_residuals, codebooks = _fake_quantization(codes)
        resolved = resolve_conflicts_usm(codes, level_residuals, codebooks)
        np.testing.assert_array_equal(resolved, codes)

    def test_spills_when_bucket_overflows(self):
        # 10 items, all on the same 2-level prefix, last codebook size 8.
        codes = np.tile(np.array([[2, 3, 0]]), (10, 1))
        level_residuals, codebooks = _fake_quantization(codes, seed=3)
        resolved = resolve_conflicts_usm(codes, level_residuals, codebooks)
        assert count_conflicts(resolved) == 0

    def test_single_level_overflow_raises(self):
        codes = np.zeros((10, 1), dtype=np.int64)
        rng = np.random.default_rng(0)
        level_residuals = rng.standard_normal((10, 1, 4)).astype(np.float32)
        codebooks = [rng.standard_normal((4, 4)).astype(np.float32)]
        with pytest.raises(IndexConflictError):
            resolve_conflicts_usm(codes, level_residuals, codebooks)

    def test_exhausted_passes_raise_conflict_error(self):
        # 5 items over a 2-level x 2-code space (4 sequences): no pass count helps.
        codes = np.zeros((5, 2), dtype=np.int64)
        rng = np.random.default_rng(0)
        level_residuals = rng.standard_normal((5, 2, 4)).astype(np.float32)
        codebooks = [rng.standard_normal((2, 4)).astype(np.float32) for _ in range(2)]
        with pytest.raises(IndexConflictError, match="still conflict after 10 passes"):
            resolve_conflicts_usm(codes, level_residuals, codebooks)

    def test_keeps_nonconflicting_assignments(self):
        codes = np.array([[0, 0, 5], [0, 0, 5], [0, 0, 1]])
        level_residuals, codebooks = _fake_quantization(codes, seed=5)
        resolved = resolve_conflicts_usm(codes, level_residuals, codebooks)
        assert resolved[2, 2] == 1  # unique item untouched

    @given(st.integers(2, 40), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_always_unique_after_resolution(self, n_items, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 3, size=(n_items, 3)).astype(np.int64)
        levels = codes.shape[1]
        codebooks = [rng.standard_normal((8, 4)).astype(np.float32)
                     for _ in range(levels)]
        level_residuals = rng.standard_normal((n_items, levels, 4)).astype(
            np.float32)
        resolved = resolve_conflicts_usm(codes, level_residuals, codebooks)
        assert count_conflicts(resolved) == 0
        assert (resolved[:, :2] <= 7).all()


class TestIndexTrie:
    def make(self):
        return IndexTrie({0: (10, 20), 1: (10, 21), 2: (11, 20)})

    def test_allowed_tokens_root(self):
        np.testing.assert_array_equal(self.make().allowed_tokens(()), [10, 11])

    def test_allowed_tokens_prefix(self):
        np.testing.assert_array_equal(self.make().allowed_tokens((10,)),
                                      [20, 21])

    def test_unknown_prefix_empty(self):
        assert len(self.make().allowed_tokens((99,))) == 0

    def test_item_lookup(self):
        assert self.make().item_at((11, 20)) == 2

    def test_item_lookup_missing(self):
        with pytest.raises(KeyError):
            self.make().item_at((11, 21))

    def test_items_under_prefix(self):
        trie = self.make()
        leaves = trie.first_child[trie.node_of((10,))] + np.arange(2)
        assert trie.child_tokens(trie.node_of((10,))).tolist() == [20, 21]
        assert sorted(trie.items[leaves - trie.level_start[-2]].tolist()) == [0, 1]

    def test_duplicate_sequences_rejected(self):
        with pytest.raises(ValueError):
            IndexTrie({0: (1, 2), 1: (1, 2)})

    def test_bad_token_ids_rejected(self):
        # A negative id would alias another node's edge key; a fractional
        # one would be truncated.  Both are refused on every way in.
        for sequence in ((-1, 2), (1.7, 2), (float("nan"), 2)):
            with pytest.raises(ValueError, match="token ids must be"):
                IndexTrie({0: sequence, 1: (3, 4)})
            with pytest.raises(ValueError, match="token ids must be"):
                self.make().with_item(3, sequence)
        assert IndexTrie({0: (1.0, 2), 1: (3, 4)}).item_at((1, 2)) == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            IndexTrie({0: (1, 2), 1: (1,)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IndexTrie({})

    def test_contains_prefix(self):
        trie = self.make()
        assert trie.contains_prefix(())
        assert trie.contains_prefix((10,))
        assert trie.contains_prefix((10, 20))
        assert not trie.contains_prefix((12,))

    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5),
                             st.integers(0, 5)), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_every_leaf_reachable_via_allowed_tokens(self, sequences):
        trie = IndexTrie({i: seq for i, seq in enumerate(sorted(sequences))})
        # Walk the trie depth-first using only allowed_tokens.
        found = set()
        stack = [()]
        while stack:
            prefix = stack.pop()
            if len(prefix) == trie.num_levels:
                found.add(trie.item_at(prefix))
                continue
            for token in trie.allowed_tokens(prefix):
                stack.append(prefix + (int(token),))
        assert found == set(range(len(sequences)))
