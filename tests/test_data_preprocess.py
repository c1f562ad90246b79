"""Tests for k-core filtering and the leave-one-out split."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Interaction,
    build_user_sequences,
    k_core_filter,
    leave_one_out_split,
    reindex_log,
)


def make_log(pairs):
    """pairs: list of (user, item); timestamps follow list order per user."""
    counters: dict[int, int] = {}
    log = []
    for user, item in pairs:
        t = counters.get(user, 0)
        counters[user] = t + 1
        log.append(Interaction(user, item, t))
    return log


class TestKCore:
    def test_removes_sparse_users(self):
        log = make_log([(0, 0), (0, 1), (1, 0)])
        filtered = k_core_filter(log, 2, 1)
        assert all(x.user_id == 0 for x in filtered)

    def test_removes_sparse_items(self):
        log = make_log([(0, 0), (1, 0), (0, 1)])
        filtered = k_core_filter(log, 1, 2)
        assert all(x.item_id == 0 for x in filtered)

    def test_iterates_until_stable(self):
        # Removing item 1 drops user 1 below threshold, cascading.
        log = make_log([(0, 0), (0, 0), (1, 0), (1, 1)])
        filtered = k_core_filter(log, 2, 2)
        users = {x.user_id for x in filtered}
        assert 1 not in users

    def test_empty_result_possible(self):
        log = make_log([(0, 0)])
        assert k_core_filter(log, 5, 5) == []

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=0, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_kcore_invariant(self, pairs):
        """After filtering, every remaining user/item meets the threshold."""
        log = make_log(pairs)
        filtered = k_core_filter(log, 3, 3)
        from collections import Counter

        users = Counter(x.user_id for x in filtered)
        items = Counter(x.item_id for x in filtered)
        assert all(c >= 3 for c in users.values())
        assert all(c >= 3 for c in items.values())


class TestReindex:
    def test_dense_ids(self):
        log = make_log([(5, 9), (5, 3), (7, 9)])
        dense, user_ids, item_ids = reindex_log(log)
        assert user_ids == [5, 7]
        assert item_ids == [3, 9]
        assert {x.user_id for x in dense} == {0, 1}
        assert {x.item_id for x in dense} == {0, 1}

    def test_preserves_order_mapping(self):
        log = make_log([(5, 9)])
        dense, user_ids, item_ids = reindex_log(log)
        assert dense[0].item_id == item_ids.index(9)


class TestSequences:
    def test_chronological(self):
        log = [Interaction(0, 3, 2), Interaction(0, 1, 0), Interaction(0, 2, 1)]
        assert build_user_sequences(log) == [[1, 2, 3]]

    def test_multiple_users(self):
        log = make_log([(0, 1), (1, 2), (0, 3)])
        sequences = build_user_sequences(log)
        assert sequences[0] == [1, 3]
        assert sequences[1] == [2]


class TestLeaveOneOut:
    def test_split_structure(self):
        split = leave_one_out_split([[1, 2, 3, 4, 5]], max_len=3)
        assert split.test_targets == [5]
        assert split.valid_targets == [4]
        assert split.test_histories == [[2, 3, 4]]
        assert split.valid_histories == [[1, 2, 3]]
        assert split.train_sequences == [[1, 2, 3]]

    def test_max_len_truncates_to_most_recent(self):
        split = leave_one_out_split([list(range(30))], max_len=5)
        assert split.test_histories[0] == list(range(24, 29))

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError):
            leave_one_out_split([[1, 2]])

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_history_length_below_one_rejected(self, max_len):
        # seq[-0:] would keep the whole sequence, seq[2:] drop its oldest items.
        with pytest.raises(ValueError, match="max_len"):
            leave_one_out_split([[1, 2, 3, 4, 5]], max_len=max_len)

    @given(st.lists(st.integers(0, 50), min_size=3, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_no_leakage(self, seq):
        """Test target never appears in the train prefix *positions*."""
        split = leave_one_out_split([seq], max_len=20)
        assert split.test_targets[0] == seq[-1]
        assert split.valid_targets[0] == seq[-2]
        # The training view stops before the validation item.
        assert split.train_sequences[0] == seq[:-2][-20:]
