"""Padding and mini-batch helpers shared by every trainer."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["pad_sequences", "iterate_minibatches"]


def pad_sequences(
    sequences: Sequence[Sequence[int]],
    pad_value: int = 0,
    max_len: int | None = None,
) -> np.ndarray:
    """Right-pad integer sequences into a dense ``(batch, max_len)`` array.

    Each sequence starts at column 0; one longer than ``max_len`` keeps its
    first ``max_len`` entries (callers clip histories to their most recent
    items first).
    """
    if max_len is None:
        max_len = max((len(s) for s in sequences), default=0)
    batch = np.full((len(sequences), max_len), pad_value, dtype=np.int64)
    for row, seq in enumerate(sequences):
        trimmed = list(seq)[:max_len]
        batch[row, :len(trimmed)] = trimmed
    return batch


def iterate_minibatches(num_examples: int, batch_size: int,
                        rng: np.random.Generator | None = None,
                        shuffle: bool = True) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(num_examples)`` in batches."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = np.arange(num_examples)
    if shuffle:
        if rng is None:
            raise ValueError("shuffle=True requires an rng")
        rng.shuffle(order)
    for start in range(0, num_examples, batch_size):
        yield order[start:start + batch_size]
