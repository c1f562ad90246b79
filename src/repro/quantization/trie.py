"""Prefix trie over item-index token sequences.

Built from the learned item indices, the trie drives constrained beam
search: at each decoding level only tokens that extend some *real* item's
index are allowed (paper Sec. III-D2), so generation can never produce an
out-of-catalog item.

Beyond membership queries, the trie is the *sparsity oracle* of the decode
hot path: a trie level has at most ``codebook_size`` distinct continuations
out of a vocabulary that is one to two orders of magnitude larger, and
:meth:`IndexTrie.allowed_token_ids` exposes exactly that structure — the
per-row legal continuations plus a memoized per-level *candidate union* —
so the language model can compute logits for the candidate tokens only
(see ``TinyLlama.lm_head_gather``) instead of the full vocabulary.

All derived lookups (dense masks, level unions, union-space rows) are
cached; :meth:`IndexTrie.add_item` mutates in place and
:meth:`IndexTrie.with_item` produces a copy-on-write snapshot — both
refresh only the caches the insertion can actually stale.  The memoized
arrays are returned read-only and with a stable identity, which downstream
weight-gather caches key on: an insertion that does not change a level's
candidate union keeps that union's identity, so those caches stay warm.

Snapshots share per-prefix child sets and memoized arrays with their
parent, so shared structures are never mutated after publication: an
insertion *replaces* a changed prefix's child set and allowed array
instead of updating them in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["IndexTrie", "SparseCandidates"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


@dataclass(frozen=True)
class SparseCandidates:
    """Legal continuations of a batch of prefixes, in candidate space.

    ``union`` is the memoized, sorted union of every candidate token id for
    the trie levels the prefixes sit at (a stable, read-only array — its
    identity is a valid cache key for gathered weight slices).  ``mask``
    restricts the union per row: ``mask[i, j]`` is True iff ``union[j]``
    legally extends ``prefixes[i]``.  ``per_row[i]`` is the same set as a
    sorted id array (empty for illegal prefixes).
    """

    per_row: list[np.ndarray]  # row -> sorted legal token ids
    union: np.ndarray  # sorted union over the rows' trie levels
    mask: np.ndarray  # (rows, len(union)) bool

    @property
    def num_candidates(self) -> int:
        return int(self.union.shape[0])

    def is_forced(self, alive: np.ndarray | None = None) -> bool:
        """Whether every (alive) row has exactly one legal continuation.

        ``alive`` optionally marks rows that still matter (beam rows with a
        finite score); dead filler rows may have any number of legal
        continuations — including zero — without breaking forcedness.
        """
        if alive is None:
            return all(ids.size == 1 for ids in self.per_row)
        return all(
            ids.size == 1 or not bool(alive[row]) for row, ids in enumerate(self.per_row)
        )

    def forced_tokens(self, pad_id: int = 0) -> np.ndarray:
        """The single legal continuation per row (``pad_id`` for dead rows)."""
        return np.fromiter(
            (ids[0] if ids.size else pad_id for ids in self.per_row),
            dtype=np.int64,
            count=len(self.per_row),
        )


class IndexTrie:
    """Maps token-id prefixes to allowed continuations and leaf item ids."""

    def __init__(self, sequences: dict[int, tuple[int, ...]]):
        """Build from ``{item_id: (token_id, token_id, ...)}``.

        Every sequence must have the same length and sequences must be
        unique (one leaf = one item) — the uniqueness the USM step provides.
        """
        if not sequences:
            raise ValueError("cannot build a trie from no sequences")
        lengths = {len(seq) for seq in sequences.values()}
        if len(lengths) != 1:
            raise ValueError(f"all index sequences must share a length: {lengths}")
        self.num_levels = lengths.pop()
        if self.num_levels == 0:
            raise ValueError("index sequences must be non-empty")

        self._children: dict[tuple[int, ...], set[int]] = {}
        self._leaf_to_item: dict[tuple[int, ...], int] = {}
        for item_id, seq in sequences.items():
            self._insert(item_id, seq)
        self._invalidate_derived()

    def _insert(self, item_id: int, seq: tuple[int, ...]) -> None:
        seq = tuple(int(t) for t in seq)
        if seq in self._leaf_to_item:
            other = self._leaf_to_item[seq]
            raise ValueError(f"duplicate index sequence {seq} for items {other} and {item_id}")
        self._leaf_to_item[seq] = item_id
        for depth in range(self.num_levels):
            prefix = seq[:depth]
            self._children.setdefault(prefix, set()).add(seq[depth])

    def _invalidate_derived(self) -> None:
        """Rebuild every cache derived from the trie's structure.

        Called on construction and after every mutation
        (:meth:`add_item`): the per-prefix allowed arrays are rebuilt and
        all memoized masks, level unions and union-space rows are dropped,
        so no caller can observe a stale constraint.
        """
        self._allowed_cache: dict[tuple[int, ...], np.ndarray] = {}
        for prefix, children in self._children.items():
            allowed = np.array(sorted(children), dtype=np.int64)
            allowed.setflags(write=False)
            self._allowed_cache[prefix] = allowed
        self._mask_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._mask_vocab_size = 0
        self._level_unions: dict[tuple[int, ...], np.ndarray] = {}
        self._union_rows: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}
        self.max_token_id = max(
            token for children in self._children.values() for token in children
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _validated_new_sequence(self, item_id: int, sequence: tuple[int, ...]) -> tuple[int, ...]:
        sequence = tuple(int(t) for t in sequence)
        if len(sequence) != self.num_levels:
            raise ValueError(
                f"sequence depth {len(sequence)} does not match trie depth {self.num_levels}"
            )
        if sequence in self._leaf_to_item:
            other = self._leaf_to_item[sequence]
            raise ValueError(
                f"duplicate index sequence {sequence} for items {other} and {item_id}"
            )
        return sequence

    def _insert_path(self, sequence: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Insert ``sequence``'s path, replacing (never mutating) child sets.

        A snapshot (:meth:`with_item`) shares set objects and allowed
        arrays with its parent, so a changed prefix's set is replaced with
        a copy; unchanged prefixes keep their set *and* allowed-array
        identity.  Returns the prefixes whose child set actually changed.
        """
        changed: set[tuple[int, ...]] = set()
        for depth in range(self.num_levels):
            prefix = sequence[:depth]
            token = sequence[depth]
            children = self._children.get(prefix)
            if children is not None and token in children:
                continue
            children = set(children) if children is not None else set()
            children.add(token)
            self._children[prefix] = children
            allowed = np.array(sorted(children), dtype=np.int64)
            allowed.setflags(write=False)
            self._allowed_cache[prefix] = allowed
            self._mask_cache.pop(prefix, None)
            changed.add(prefix)
        return changed

    def _scoped_invalidate(
        self, sequence: tuple[int, ...], changed_prefixes: set[tuple[int, ...]]
    ) -> None:
        """Drop only the cross-prefix memos the insertion can stale.

        A level whose path prefix is unchanged — or whose memoized union
        already contains the inserted token — keeps its union array
        identity, so gathered-weight caches keyed on that identity stay
        warm.  Union-space rows survive iff neither their prefix nor any
        of their levels changed.
        """
        changed_levels: set[int] = set()
        for depth, token in enumerate(sequence):
            if sequence[:depth] not in changed_prefixes:
                continue
            union = self._level_unions.get((depth,))
            if union is not None:
                pos = int(np.searchsorted(union, token))
                if pos < union.shape[0] and int(union[pos]) == token:
                    continue
            changed_levels.add(depth)
        self._level_unions = {
            levels: union
            for levels, union in self._level_unions.items()
            if not changed_levels.intersection(levels)
        }
        self._union_rows = {
            key: row
            for key, row in self._union_rows.items()
            if key[1] not in changed_prefixes and not changed_levels.intersection(key[0])
        }
        self.max_token_id = max(self.max_token_id, max(sequence))

    def add_item(self, item_id: int, sequence: tuple[int, ...]) -> None:
        """Insert one more item's index sequence (catalog growth), in place.

        The sequence must have the trie's depth and be unused.  Every
        derived cache the insertion can stale — the allowed arrays and
        dense mask rows of the prefixes along the inserted path, plus the
        cross-prefix memos (level unions, union-space rows) that the new
        tokens actually extend — is refreshed or dropped, so in-flight
        callers that re-query the trie see the new item immediately.  The
        update is incremental (``O(levels)`` prefix rebuilds, not a
        whole-trie rebuild), so growing a catalog item by item stays
        linear.  For a publication-safe variant that leaves ``self``
        untouched, see :meth:`with_item`.
        """
        sequence = self._validated_new_sequence(item_id, sequence)
        self._leaf_to_item[sequence] = item_id
        changed = self._insert_path(sequence)
        self._scoped_invalidate(sequence, changed)

    def with_item(self, item_id: int, sequence: tuple[int, ...]) -> "IndexTrie":
        """A copy-on-write snapshot of this trie containing one more item.

        ``self`` is left completely untouched — in-flight decodes pinned
        to it keep decoding against exactly the catalog they started with
        — while the snapshot shares every unchanged structure and derived
        memo with its parent, *including identities*: allowed arrays and
        level unions the insertion does not change are the same array
        objects, so downstream gathered-weight caches keyed on them stay
        warm across a catalog version swap.  Only the ``O(levels)``
        prefixes along the inserted path (and the memos the new tokens
        actually extend) are rebuilt.
        """
        sequence = self._validated_new_sequence(item_id, sequence)
        clone = IndexTrie.__new__(IndexTrie)
        clone.num_levels = self.num_levels
        clone._children = dict(self._children)
        clone._leaf_to_item = dict(self._leaf_to_item)
        clone._allowed_cache = dict(self._allowed_cache)
        clone._mask_cache = dict(self._mask_cache)
        clone._mask_vocab_size = self._mask_vocab_size
        clone._level_unions = dict(self._level_unions)
        clone._union_rows = dict(self._union_rows)
        clone.max_token_id = self.max_token_id
        clone._leaf_to_item[sequence] = item_id
        changed = clone._insert_path(sequence)
        clone._scoped_invalidate(sequence, changed)
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def allowed_tokens(self, prefix: tuple[int, ...]) -> np.ndarray:
        """Token ids that legally extend ``prefix`` (empty array if none)."""
        prefix = tuple(int(t) for t in prefix)
        return self._allowed_cache.get(prefix, _EMPTY)

    def allowed_token_mask(
        self, prefixes: list[tuple[int, ...]], vocab_size: int
    ) -> np.ndarray:
        """Boolean ``(len(prefixes), vocab_size)`` constraint mask.

        Row ``i`` is True exactly at the token ids that legally extend
        ``prefixes[i]`` (all-False for unknown/illegal prefixes).  Per-prefix
        rows are cached, so constrained decoding pays one dictionary lookup
        and one stack per step instead of per-hypothesis Python loops.
        """
        if vocab_size <= self.max_token_id:
            raise ValueError(
                f"vocab_size {vocab_size} too small for trie tokens "
                f"(max id {self.max_token_id})"
            )
        if vocab_size != self._mask_vocab_size:
            self._mask_cache = {}
            self._mask_vocab_size = vocab_size
        rows = []
        for prefix in prefixes:
            prefix = tuple(int(t) for t in prefix)
            row = self._mask_cache.get(prefix)
            if row is None:
                row = np.zeros(vocab_size, dtype=bool)
                allowed = self._allowed_cache.get(prefix)
                if allowed is not None:
                    row[allowed] = True
                self._mask_cache[prefix] = row
            rows.append(row)
        return np.stack(rows, axis=0)

    def level_union(self, level: int) -> np.ndarray:
        """Sorted union of every token id appearing at trie depth ``level``.

        This is the *candidate set* of a decode step whose beams all sit at
        ``level``: at most ``codebook_size`` ids out of the whole
        vocabulary.  Memoized with a stable identity (and returned
        read-only) so gathered output-head weights can be cached against
        the array object itself; invalidated on :meth:`add_item`.
        """
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range for depth {self.num_levels}")
        return self._union_for_levels((level,))

    def union_for_levels(self, levels: Sequence[int]) -> np.ndarray:
        """Sorted union of the token ids appearing at any depth in ``levels``.

        The multi-level generalisation of :meth:`level_union`, memoized
        under the same normalised key :meth:`allowed_token_ids` uses for
        its union — so every mixed-depth batched step stepping the same
        levels shares one stable, read-only array (and therefore one
        gathered output-head memo entry).  Invalidated on :meth:`add_item`.
        """
        normalized = tuple(sorted({int(level) for level in levels}))
        if not normalized:
            raise ValueError("levels must be non-empty")
        for level in normalized:
            if not 0 <= level < self.num_levels:
                raise ValueError(
                    f"level {level} out of range for depth {self.num_levels}"
                )
        return self._union_for_levels(normalized)

    def _union_for_levels(self, levels: tuple[int, ...]) -> np.ndarray:
        union = self._level_unions.get(levels)
        if union is None:
            if len(levels) == 1:
                tokens: set[int] = set()
                for prefix, children in self._children.items():
                    if len(prefix) == levels[0]:
                        tokens.update(children)
                union = np.array(sorted(tokens), dtype=np.int64)
            else:
                parts = [self._union_for_levels((level,)) for level in levels]
                union = parts[0]
                for part in parts[1:]:
                    union = np.union1d(union, part)
            union.setflags(write=False)
            self._level_unions[levels] = union
        return union

    def allowed_token_ids(self, prefixes: list[tuple[int, ...]]) -> SparseCandidates:
        """Per-row legal continuations plus the memoized candidate union.

        The sparse counterpart of :meth:`allowed_token_mask`: instead of a
        ``(rows, vocab_size)`` mask it returns the (tiny) union of
        candidate ids for the trie levels the prefixes sit at, and a
        ``(rows, len(union))`` mask in union space.  Per-(levels, prefix)
        rows are cached, so a steady-state decode step pays dictionary
        lookups and one stack — no vocabulary-sized work at all.
        """
        prefixes = [tuple(int(t) for t in p) for p in prefixes]
        levels = tuple(sorted({len(p) for p in prefixes}))
        union = self._union_for_levels(levels)
        per_row: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        for prefix in prefixes:
            allowed = self._allowed_cache.get(prefix, _EMPTY)
            per_row.append(allowed)
            key = (levels, prefix)
            row = self._union_rows.get(key)
            if row is None:
                row = np.zeros(union.shape[0], dtype=bool)
                if allowed.size:
                    row[np.searchsorted(union, allowed)] = True
                row.setflags(write=False)
                self._union_rows[key] = row
            rows.append(row)
        mask = np.stack(rows, axis=0)
        return SparseCandidates(per_row=per_row, union=union, mask=mask)

    def item_at(self, sequence: tuple[int, ...]) -> int:
        """The item id stored at a complete index sequence."""
        sequence = tuple(int(t) for t in sequence)
        try:
            return self._leaf_to_item[sequence]
        except KeyError:
            raise KeyError(f"no item with index sequence {sequence}") from None

    def contains_prefix(self, prefix: tuple[int, ...]) -> bool:
        prefix = tuple(int(t) for t in prefix)
        if len(prefix) == self.num_levels:
            return prefix in self._leaf_to_item
        return prefix in self._children or prefix == ()

    def items_under_prefix(self, prefix: tuple[int, ...]) -> list[int]:
        """All item ids whose index starts with ``prefix``."""
        prefix = tuple(int(t) for t in prefix)
        return [
            item for seq, item in self._leaf_to_item.items() if seq[: len(prefix)] == prefix
        ]

    @property
    def num_items(self) -> int:
        return len(self._leaf_to_item)

    def all_sequences(self) -> dict[int, tuple[int, ...]]:
        """item_id -> token sequence (a copy)."""
        return {item: seq for seq, item in self._leaf_to_item.items()}

    def subtrie(self, item_ids: "Sequence[int]") -> "IndexTrie":
        """A new trie over the given items' sequences only (candidate narrowing).

        The retrieval tier hands the decoder a candidate set; a subtrie
        built from exactly those items is the *selection* constraint of a
        narrowed decode (see ``repro.llm.decode_prefill``'s ``narrow``
        parameter — scoring still renormalises over this full trie, so
        narrowing never changes how the surviving candidates rank).  The
        subtrie is independent of its parent: mutating either afterwards
        does not affect the other.  Raises ``KeyError`` for ids not in the
        trie and ``ValueError`` for an empty candidate set.
        """
        sequences: dict[int, tuple[int, ...]] = {}
        item_to_seq = {item: seq for seq, item in self._leaf_to_item.items()}
        for item_id in item_ids:
            item_id = int(item_id)
            if item_id in sequences:
                continue
            try:
                sequences[item_id] = item_to_seq[item_id]
            except KeyError:
                raise KeyError(f"item {item_id} has no index sequence in this trie") from None
        if not sequences:
            raise ValueError("cannot build a subtrie from no items")
        return IndexTrie(sequences)
