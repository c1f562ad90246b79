"""Interaction-log preprocessing: k-core filtering and leave-one-out splits.

Mirrors the paper's protocol (Sec. IV-A1/IV-A3): filter unpopular users and
items with fewer than five interactions, order each user's behaviour
chronologically, cap sequence length at 20, and evaluate leave-one-out
(most recent item = test, second most recent = validation).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from .interactions import Interaction

__all__ = [
    "k_core_filter",
    "build_user_sequences",
    "LeaveOneOutSplit",
    "leave_one_out_split",
    "reindex_log",
]


def k_core_filter(
    log: list[Interaction],
    min_user_interactions: int = 5,
    min_item_interactions: int = 5,
) -> list[Interaction]:
    """Iteratively drop users/items with too few interactions (k-core), at most 50 rounds."""
    current = list(log)
    for _ in range(50):
        user_counts = Counter(x.user_id for x in current)
        item_counts = Counter(x.item_id for x in current)
        filtered = [
            x for x in current
            if user_counts[x.user_id] >= min_user_interactions
            and item_counts[x.item_id] >= min_item_interactions
        ]
        if len(filtered) == len(current):
            return filtered
        current = filtered
    return current


def reindex_log(log: list[Interaction]) -> tuple[list[Interaction], list[int], list[int]]:
    """Densely renumber users and items.

    Returns the reindexed log plus ``user_ids`` and ``item_ids`` lists that
    map new -> old ids (so the catalog can be subset to match).
    """
    user_ids = sorted({x.user_id for x in log})
    item_ids = sorted({x.item_id for x in log})
    user_map = {old: new for new, old in enumerate(user_ids)}
    item_map = {old: new for new, old in enumerate(item_ids)}
    reindexed = [
        Interaction(user_map[x.user_id], item_map[x.item_id], x.timestamp)
        for x in log
    ]
    return reindexed, user_ids, item_ids


def build_user_sequences(log: list[Interaction]) -> list[list[int]]:
    """Chronological item sequence per (dense) user id."""
    per_user: dict[int, list[Interaction]] = defaultdict(list)
    for interaction in log:
        per_user[interaction.user_id].append(interaction)
    num_users = max(per_user) + 1 if per_user else 0
    sequences = []
    for user in range(num_users):
        events = sorted(per_user[user], key=lambda x: x.timestamp)
        sequences.append([event.item_id for event in events])
    return sequences


@dataclass
class LeaveOneOutSplit:
    """Leave-one-out train/validation/test views of user sequences.

    Attributes
    ----------
    train_sequences:
        Per user: all interactions except the last two (for model fitting).
    valid_histories / valid_targets:
        History is the sequence up to (not including) the second-most-recent
        item, truncated to ``max_len``; target is that item.
    test_histories / test_targets:
        History excludes only the most recent item; target is that item.
    """

    train_sequences: list[list[int]]
    valid_histories: list[list[int]]
    valid_targets: list[int]
    test_histories: list[list[int]]
    test_targets: list[int]
    max_len: int

    @property
    def num_users(self) -> int:
        return len(self.train_sequences)


def leave_one_out_split(sequences: list[list[int]], max_len: int = 20) -> LeaveOneOutSplit:
    """Apply the paper's leave-one-out protocol to user sequences.

    Sequences shorter than 3 cannot produce train + valid + test entries
    and are rejected (the 5-core filter guarantees length >= 5 in practice).
    Each history keeps its most recent ``max_len`` items, at least one.
    """
    if max_len < 1:  # seq[-0:] would keep the whole sequence
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    train_sequences: list[list[int]] = []
    valid_histories: list[list[int]] = []
    valid_targets: list[int] = []
    test_histories: list[list[int]] = []
    test_targets: list[int] = []
    for seq in sequences:
        if len(seq) < 3:
            raise ValueError("leave-one-out requires sequences of length >= 3")
        train_sequences.append(seq[:-2][-max_len:])
        valid_histories.append(seq[:-2][-max_len:])
        valid_targets.append(seq[-2])
        test_histories.append(seq[:-1][-max_len:])
        test_targets.append(seq[-1])
    return LeaveOneOutSplit(
        train_sequences=train_sequences,
        valid_histories=valid_histories,
        valid_targets=valid_targets,
        test_histories=test_histories,
        test_targets=test_targets,
        max_len=max_len,
    )
