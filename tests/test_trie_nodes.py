"""The trie's node arrays against a brute-force oracle.

An ``IndexTrie`` is what the beam stepper reads instead of token prefixes:
one id per prefix, children as id ranges, leaf -> item and sequence, each
node's column in its level's union.  Every answer it gives is checked here
against sets computed straight from the item sequences, on random tries
(depth 1-4, unary chains, single items, 256-wide levels) and along chains
of ``with_item`` snapshots — where a parent's answers must not move, every
array equals a from-scratch build's, and a level union keeps its identity
exactly when the new token was already in it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import IndexTrie


@st.composite
def catalogs(draw, max_items=40):
    """``{item_id: sequence}``: 1-4 levels of 1 (a unary chain), 2, 3 or 256 codes."""
    depth = draw(st.integers(1, 4))
    width = draw(st.sampled_from([1, 2, 3, 256]))
    stride = draw(st.sampled_from([0, width]))  # 0: levels share token ids
    codes = st.tuples(*[st.integers(0, width - 1)] * depth)
    sequences = draw(st.lists(codes, min_size=1, max_size=max_items, unique=True))
    items = draw(st.lists(st.integers(0, 10**6), min_size=len(sequences),
                          max_size=len(sequences), unique=True))
    return {item: tuple(5 + level * stride + code for level, code in enumerate(seq))
            for item, seq in zip(items, sequences)}


def prefixes_of(catalog):
    """Every legal prefix, root included, sorted."""
    return sorted({seq[:depth] for seq in catalog.values() for depth in range(len(seq) + 1)})


def brute_children(catalog, prefix):
    return sorted({seq[len(prefix)] for seq in catalog.values()
                   if len(seq) > len(prefix) and seq[: len(prefix)] == prefix})


def brute_union(catalog, prefixes):
    """The union ``allowed_token_ids`` returns: every token at the rows' level."""
    levels = {len(prefix) for prefix in prefixes}
    return sorted({seq[level] for seq in catalog.values() for level in levels
                   if level < len(seq)})


def assert_matches_catalog(trie, catalog):
    """Every node-array answer equals the brute-force one."""
    legal = prefixes_of(catalog)
    assert trie.num_real == len(legal)
    assert sorted(trie.prefix(node) for node in range(trie.num_real)) == legal
    depth = trie.num_levels
    for prefix in legal:
        node = trie.node_of(prefix)
        assert trie.prefix(node) == prefix and trie.depth[node] == len(prefix)
        children = brute_children(catalog, prefix)
        assert trie.child_tokens(node).tolist() == children
        assert trie.num_children[node] == len(children)
        ids = trie.first_child[node] + np.arange(len(children))
        assert [trie.prefix(child) for child in ids.tolist()] == [
            prefix + (token,) for token in children]
        assert trie.child(np.full(len(children), node), np.array(children, dtype=np.int64)
                          ).tolist() == ids.tolist()
        assert trie.first_token[node] == (children[0] if children else -1)
        if prefix:
            assert trie.unions[len(prefix) - 1][trie.column[node]] == prefix[-1]
    leaves = trie.level_start[depth]
    for item, sequence in catalog.items():
        leaf = trie.node_of(sequence)
        row = leaf - leaves
        assert trie.items[row] == item == trie.item_at(sequence)
        assert trie.sequences[row] == sequence
        assert trie.leaf_rows([item]).tolist() == [row]
    for level in range(depth):
        assert trie.unions[level] is trie.union_for_levels([level])
    # Illegal prefixes: the dead node of their depth, with nothing below it.
    top = max(token for seq in catalog.values() for token in seq)
    for prefix in ((top + 1,), (-1,), legal[-1][:-1] + (top + 7,)):
        node = trie.node_of(prefix)
        assert node == trie.num_real + len(prefix) and trie.prefix(node) is None
        assert trie.column[node] == -1
        assert trie.depth[node] == len(prefix) and trie.child_tokens(node).size == 0


def assert_same_arrays(trie, scratch):
    """Every array (and array list) of ``trie`` equals ``scratch``'s, one for one."""
    fields = vars(scratch)
    assert vars(trie).keys() == fields.keys()
    for name, want in fields.items():
        got = getattr(trie, name)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert got.dtype == want.dtype, name
        elif isinstance(want, list):
            assert len(got) == len(want), name
            for got_level, want_level in zip(got, want):
                np.testing.assert_array_equal(got_level, want_level, err_msg=name)
        else:
            assert got == want, name


class TestNodeTable:
    @settings(max_examples=60, deadline=None)
    @given(catalog=catalogs())
    def test_matches_brute_force(self, catalog):
        assert_matches_catalog(IndexTrie(catalog), catalog)

    @settings(max_examples=60, deadline=None)
    @given(catalog=catalogs(), data=st.data())
    def test_allowed_token_ids_over_mixed_levels(self, catalog, data):
        trie = IndexTrie(catalog)
        top = max(token for seq in catalog.values() for token in seq)
        pool = prefixes_of(catalog) + [(top + 1,), (top + 1, top + 1)[: trie.num_levels]]
        batch = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        nodes = np.array([trie.node_of(prefix) for prefix in batch], dtype=np.int64)
        if len({len(prefix) for prefix in batch}) > 1:
            for query in (nodes, batch):
                with pytest.raises(ValueError, match="depths"):
                    trie.allowed_token_ids(query)
            # One level at a time is what a decode cohort asks for.
            batch = [prefix for prefix in batch if len(prefix) == len(batch[0])]
            nodes = np.array([trie.node_of(prefix) for prefix in batch], dtype=np.int64)
        union = brute_union(catalog, batch)
        everyone = np.ones(len(batch), dtype=bool)
        for candidates in (trie.allowed_token_ids(nodes), trie.allowed_token_ids(batch)):
            assert candidates.union.tolist() == union
            rows, children = trie.expand(candidates.nodes, everyone)
            assert [candidates.union[trie.column[children[rows == row]]].tolist()
                    for row in range(len(batch))] == [
                brute_children(catalog, prefix) for prefix in batch]
            assert [trie.child_tokens(node).tolist() for node in candidates.nodes] == [
                brute_children(catalog, prefix) for prefix in batch]
        fanout = np.array([len(brute_children(catalog, prefix)) for prefix in batch])
        alive = np.array(data.draw(st.lists(st.booleans(), min_size=len(batch),
                                            max_size=len(batch))))
        candidates = trie.allowed_token_ids(nodes)
        assert candidates.is_forced() == bool((fanout == 1).all())
        assert candidates.is_forced(alive) == bool(((fanout == 1) | ~alive).all())
        forced = [brute_children(catalog, prefix)[:1] or [0] for prefix in batch]
        assert candidates.forced_tokens().tolist() == [ids[0] for ids in forced]

    def test_single_item_and_unary_chain(self):
        for catalog in ({7: (3,)}, {7: (3, 3, 3, 3)}, {1: (4, 5, 6), 2: (4, 5, 7)}):
            trie = IndexTrie(catalog)
            assert_matches_catalog(trie, catalog)
            chain = trie.num_children[: trie.level_start[trie.num_levels - 1]]
            assert (chain == 1).all()  # one child all the way down to the last split

    def test_256_wide_levels(self):
        catalog = {item: (item // 256, 256 + item % 256) for item in range(600)}
        trie = IndexTrie(catalog)
        assert_matches_catalog(trie, catalog)
        assert [union.shape[0] for union in trie.unions] == [3, 256, 0]
        assert trie.column[trie.level_start[2]:trie.level_start[3]].max() == 255


class TestSnapshotChains:
    @settings(max_examples=40, deadline=None)
    @given(catalog=catalogs(max_items=12), data=st.data())
    def test_with_item_chain(self, catalog, data):
        trie = IndexTrie(catalog)
        depth = trie.num_levels
        for _ in range(data.draw(st.integers(1, 4))):
            # Per level: a token the level has, or one no level has yet.
            new = max(token for seq in catalog.values() for token in seq) + 1
            levels = [sorted({seq[level] for seq in catalog.values()}) + [new]
                      for level in range(depth)]
            taken = set(catalog.values())
            sequence = data.draw(st.tuples(*map(st.sampled_from, levels)).filter(
                lambda seq: seq not in taken))
            item = max(catalog) + 1
            before = [trie.level_union(level) for level in range(depth)]
            snapshot = trie.with_item(item, sequence)
            # The parent answers exactly as before: it is what pinned decodes read.
            assert_matches_catalog(trie, catalog)
            catalog = {**catalog, item: sequence}
            assert_matches_catalog(snapshot, catalog)
            assert_same_arrays(snapshot, IndexTrie(catalog))
            for level, union in enumerate(before):
                kept = sequence[level] in set(union.tolist())
                assert (snapshot.level_union(level) is union) == kept
            trie = snapshot


class TestSubtrie:
    @settings(max_examples=40, deadline=None)
    @given(catalog=catalogs(), data=st.data())
    def test_subtrie_through_the_item_map(self, catalog, data):
        trie = IndexTrie(catalog)
        chosen = data.draw(st.lists(st.sampled_from(sorted(catalog)), min_size=1))
        subtrie = trie.subtrie(chosen)
        assert subtrie.all_sequences() == {item: catalog[item] for item in chosen}
        mask = trie.path_mask(chosen)
        on_paths = {seq[:level] for item in chosen for level in range(trie.num_levels + 1)
                    for seq in (catalog[item],)}
        assert {trie.prefix(node) for node in np.flatnonzero(mask).tolist()} == on_paths
