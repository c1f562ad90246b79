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

The decode hot path does not walk prefixes at all: :attr:`IndexTrie.nodes`
compiles the trie once into :class:`TrieNodes` — one integer id per
prefix, children as contiguous id ranges, leaf → item / sequence arrays and
one union-space mask table per level — so a beam stepper carries one node
id per hypothesis and every per-hypothesis query is an array gather.

:meth:`IndexTrie.add_item` mutates in place and :meth:`IndexTrie.with_item`
produces a copy-on-write snapshot; either way the node table is rebuilt
lazily, on the first decode that reads it.  Level unions are returned
read-only and with a stable identity, which the gathered output-head memo
keys on: an insertion that does not change a level's candidate union keeps
that union's identity, so the memo stays warm across a catalog swap.
Snapshots share memoized unions with their parent and never mutate them:
an insertion that extends a union drops it instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["IndexTrie", "SparseCandidates", "TrieNodes"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for small int arrays, without its per-call overhead."""
    values = np.sort(values)
    if values.size:
        values = values[np.concatenate([[True], values[1:] != values[:-1]])]
    return values


class TrieNodes:
    """An :class:`IndexTrie` compiled to arrays: one integer id per prefix.

    Ids are level-major: the root is ``0``, then every depth-1 prefix in
    token order, then every depth-2 prefix in lexicographic order, … then
    the leaves (depth ``num_levels``), one per item.  A node's children are
    therefore the consecutive ids ``first_child[n] .. first_child[n] +
    num_children[n]``, in token order, and leaf ``level_start[L] + i`` holds
    item ``items[i]``, whose token tuple is ``sequences[i]`` (prebuilt, so
    a retiring beam builds no tuples).  Past the ``num_real`` real ids sit one
    *dead* node per depth ``d`` (id ``num_real + d``): the node of any
    length-``d`` prefix no item has, with no children — what a ``-inf``
    hypothesis that picked an illegal token holds, so depth stays readable
    off every id.

    Per node (arrays of length :attr:`size`): ``depth``, ``token`` (the
    token leading into it; ``-1`` for the root and dead nodes),
    ``num_children``, ``first_child`` (a dead node when childless),
    ``first_token`` (its first child's token, ``-1`` when childless).  Per
    depth ``d``: ``unions[d]``, the sorted union of the tokens at trie
    level ``d`` (the memoized :meth:`IndexTrie.level_union` array itself),
    and ``masks[d]``, row ``local[n]`` of which marks node ``n``'s children
    in ``unions[d]`` space (the dead node's row is all False).  Every array
    is read-only and the table is never mutated after construction.
    """

    def __init__(
        self,
        leaf_to_item: dict[tuple[int, ...], int],
        num_levels: int,
        level_unions: dict[tuple[int, ...], np.ndarray],
    ):
        levels, count = num_levels, len(leaf_to_item)
        tokens = itertools.chain.from_iterable(leaf_to_item)
        sequences = np.fromiter(tokens, dtype=np.int64, count=count * levels).reshape(count, -1)
        items = np.fromiter(leaf_to_item.values(), dtype=np.int64, count=count)
        order = np.lexsort(sequences.T[::-1])
        sequences, items = sequences[order], items[order]
        # starts[d, i]: sorted row i begins a new depth-(d + 1) prefix.
        starts = np.ones((levels, count), dtype=bool)
        if count > 1:
            starts[:, 1:] = np.logical_or.accumulate(sequences[1:] != sequences[:-1], axis=1).T
        widths = np.concatenate([[1], starts.sum(axis=1)])  # nodes per depth 0..L
        level_start = np.concatenate([[0], np.cumsum(widths)])
        real = int(level_start[-1])
        size = real + levels + 1
        depth = np.concatenate([np.repeat(np.arange(levels + 1), widths), np.arange(levels + 1)])
        token = np.full(size, -1, dtype=np.int64)
        parent = np.zeros(real, dtype=np.int64)
        first_row = np.zeros(real, dtype=np.int64)
        row_node = np.zeros(count, dtype=np.int64)  # each sorted row's node at depth d
        for d in range(levels):
            rows = np.flatnonzero(starts[d])
            ids = slice(level_start[d + 1], level_start[d + 2])
            parent[ids] = row_node[rows]
            token[ids] = sequences[rows, d]
            first_row[ids] = rows
            row_node = level_start[d + 1] + np.cumsum(starts[d]) - 1
        num_children = np.zeros(size, dtype=np.int64)
        num_children[:real] = np.bincount(parent[1:], minlength=real)
        # Children are grouped by parent in id order, starting at id 1.
        first_child = real + np.minimum(depth + 1, levels)
        has = num_children > 0
        first_child[has] = (np.cumsum(num_children) - num_children + 1)[has]
        first_token = np.where(has, token[first_child], -1)
        local = np.concatenate([np.arange(real) - level_start[depth[:real]], widths])

        self.num_levels = levels
        self.num_real = real
        self.size = size
        self.level_start = _frozen(level_start)
        self.depth = _frozen(depth)
        self.token = _frozen(token)
        self.num_children = _frozen(num_children)
        self.first_child = _frozen(first_child)
        self.first_token = _frozen(first_token)
        self.local = _frozen(local)
        # Leaf level_start[L] + i holds items[i], whose sequence is sequences[i].
        self.sequences: list[tuple[int, ...]] = list(map(tuple, sequences.tolist()))
        self.items = _frozen(items)
        self._first_row = first_row
        self._item_order = np.argsort(items, kind="stable")
        self._sorted_items = items[self._item_order]
        self._stride = int(sequences.max()) + 1
        self._edge_keys = parent[1:] * self._stride + token[1:real]  # edge e -> node e + 1
        self.unions: list[np.ndarray] = []
        self.masks: list[np.ndarray] = []
        for d in range(levels + 1):
            children = np.arange(level_start[d + 1], level_start[d + 2]) if d < levels else _EMPTY
            union = level_unions.get((d,))
            if union is None:
                union = _frozen(_sorted_unique(token[children]))
                union = level_unions.setdefault((d,), union)
            mask = np.zeros((widths[d] + 1, union.shape[0]), dtype=bool)
            mask[local[parent[children]], np.searchsorted(union, token[children])] = True
            self.unions.append(union)
            self.masks.append(_frozen(mask))

    # ------------------------------------------------------------------
    def child(self, parents: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Node of ``parents[i] + (tokens[i],)`` (dead when no item has it)."""
        keys = parents * self._stride + tokens
        pos = np.minimum(np.searchsorted(self._edge_keys, keys), self._edge_keys.shape[0] - 1)
        found = (self._edge_keys[pos] == keys) & (tokens >= 0) & (tokens < self._stride)
        dead = self.num_real + np.minimum(self.depth[parents] + 1, self.num_levels)
        return np.where(found, pos + 1, dead)

    def node_of(self, prefix: Sequence[int]) -> int:
        """Node id of a token prefix (a dead node for an illegal one)."""
        node = 0
        for token in prefix:
            node = int(self.child(np.array([node]), np.array([int(token)]))[0])
        return node

    def prefix(self, node: int) -> tuple[int, ...] | None:
        """The token prefix a node stands for (``None`` for a dead node)."""
        if node >= self.num_real:
            return None
        return self.sequences[self._first_row[node]][: self.depth[node]]

    def child_tokens(self, node: int) -> np.ndarray:
        """Sorted tokens that extend ``node`` (a read-only view)."""
        start = self.first_child[node]
        return self.token[start : start + self.num_children[node]]

    def expand(self, nodes: np.ndarray, alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every child of the ``alive`` entries of ``nodes``: ``(row, child node)`` pairs.

        Rows are in order and each row's children in token order, so
        ``token[children]`` is sorted within a row.
        """
        counts = np.where(alive, self.num_children[nodes], 0)
        rows = np.repeat(np.arange(nodes.shape[0]), counts)
        offsets = np.repeat(self.first_child[nodes] - (np.cumsum(counts) - counts), counts)
        return rows, np.arange(rows.shape[0]) + offsets

    def leaf_rows(self, item_ids: Sequence[int]) -> np.ndarray:
        """Leaf order (leaf ``level_start[L] + row``) of ``item_ids``."""
        wanted = np.asarray(item_ids, dtype=np.int64).reshape(-1)
        pos = np.minimum(np.searchsorted(self._sorted_items, wanted), self.items.shape[0] - 1)
        missing = self._sorted_items[pos] != wanted
        if missing.any():
            item = int(wanted[np.argmax(missing)])
            raise KeyError(f"item {item} has no index sequence in this trie")
        return self._item_order[pos]

    def path_mask(self, item_ids: Sequence[int]) -> np.ndarray:
        """Bool over node ids: True on every prefix of the given items' sequences.

        A candidate-narrowed decode row keeps a hypothesis selectable iff
        its node is on one of these paths: the items' leaves, then their
        ancestors up to the root.  Raises ``KeyError`` for an id with no
        leaf and ``ValueError`` for no ids.
        """
        nodes = self.level_start[-2] + self.leaf_rows(item_ids)
        if not nodes.size:
            raise ValueError("a narrowed row needs at least one candidate item")
        # Every prefix above the leaves has children, numbered in its id
        # order, so a node's parent is the last inner node whose first child
        # is at or before it.
        inner_first_child = self.first_child[: self.level_start[-2]]
        mask = np.zeros(self.size, dtype=bool)
        for _ in range(self.num_levels):
            mask[nodes] = True
            nodes = inner_first_child.searchsorted(nodes, side="right") - 1
        mask[0] = True
        return mask


@dataclass(frozen=True)
class SparseCandidates:
    """Legal continuations of a batch of trie nodes, in candidate space.

    ``nodes`` are the rows' ids in ``table`` (:class:`TrieNodes`).
    ``union`` is the memoized, sorted union of every candidate token id for
    the trie levels the rows sit at (a stable, read-only array — its
    identity is a valid cache key for gathered weight slices).  ``mask``
    restricts the union per row: ``mask[i, j]`` is True iff ``union[j]``
    legally extends row ``i``'s prefix.
    """

    nodes: np.ndarray  # (rows,) node ids
    union: np.ndarray  # sorted union over the rows' trie levels
    mask: np.ndarray  # (rows, len(union)) bool
    table: TrieNodes = field(repr=False, compare=False)

    @property
    def num_candidates(self) -> int:
        return int(self.union.shape[0])

    def is_forced(self, alive: np.ndarray | None = None) -> bool:
        """Whether every (alive) row has exactly one legal continuation.

        ``alive`` optionally marks rows that still matter (beam rows with a
        finite score); dead filler rows may have any number of legal
        continuations — including zero — without breaking forcedness.
        """
        single = self.table.num_children[self.nodes] == 1
        if alive is not None:
            single |= ~alive
        return bool(single.all())

    def forced_tokens(self, pad_id: int = 0) -> np.ndarray:
        """The first legal continuation per row (``pad_id`` for childless rows)."""
        first = self.table.first_token[self.nodes]
        return np.where(first >= 0, first, pad_id)


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

        self._leaf_to_item: dict[tuple[int, ...], int] = {}
        for item_id, seq in sequences.items():
            seq = tuple(int(t) for t in seq)
            if seq in self._leaf_to_item:
                other = self._leaf_to_item[seq]
                raise ValueError(f"duplicate index sequence {seq} for items {other} and {item_id}")
            self._leaf_to_item[seq] = item_id
        self.max_token_id = max(max(seq) for seq in self._leaf_to_item)
        self._level_unions: dict[tuple[int, ...], np.ndarray] = {}
        # Derived on first use, so a trie built only to be read as a set of
        # sequences (a subtrie) costs its validation loop alone.
        self._nodes: TrieNodes | None = None

    @property
    def nodes(self) -> TrieNodes:
        """The compiled node table, built on first use.

        Built once per trie object and never mutated; :meth:`add_item`
        drops it, so node ids are only comparable between queries on one
        unmutated trie (a live catalog publishes :meth:`with_item`
        snapshots, which in-flight decodes never see).  Concurrent first
        reads may both build it: the tables are identical.
        """
        table = self._nodes
        if table is None:
            table = self._nodes = TrieNodes(self._leaf_to_item, self.num_levels, self._level_unions)
        return table

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

    def _insert(self, item_id: int, sequence: tuple[int, ...]) -> None:
        """Insert ``sequence`` into the leaf map and drop the node table.

        Level unions survive iff the inserted token was already in them: a
        snapshot (:meth:`with_item`) shares them with its parent, so a
        union the insertion extends is dropped, never mutated.
        """
        self._leaf_to_item[sequence] = item_id
        for depth, token in enumerate(sequence):
            union = self._level_unions.get((depth,))
            if union is not None:
                pos = int(union.searchsorted(token))
                if pos < union.shape[0] and int(union[pos]) == token:
                    continue
            self._level_unions = {
                key: kept for key, kept in self._level_unions.items() if depth not in key
            }
        self._nodes = None
        self.max_token_id = max(self.max_token_id, max(sequence))

    def add_item(self, item_id: int, sequence: tuple[int, ...]) -> None:
        """Insert one more item's index sequence (catalog growth), in place.

        The sequence must have the trie's depth and be unused.  Only the
        level unions the new tokens actually extend are dropped; the node
        table is rebuilt on next use, so node ids handed out before do not
        carry over.  For a publication-safe variant that leaves ``self``
        untouched — what a trie with decodes in flight needs — see
        :meth:`with_item`.
        """
        sequence = self._validated_new_sequence(item_id, sequence)
        self._insert(item_id, sequence)

    def with_item(self, item_id: int, sequence: tuple[int, ...]) -> "IndexTrie":
        """A copy-on-write snapshot of this trie containing one more item.

        ``self`` is left completely untouched — in-flight decodes pinned
        to it keep decoding against exactly the catalog they started with
        — while the snapshot keeps every level union the insertion does
        not change as the same array object, so the gathered output-head
        memo keyed on it stays warm across a catalog version swap.  The
        snapshot compiles its own node table lazily, on the first decode
        against it, so publishing copies only the leaf map.
        """
        sequence = self._validated_new_sequence(item_id, sequence)
        clone = IndexTrie.__new__(IndexTrie)
        clone.num_levels = self.num_levels
        clone._leaf_to_item = dict(self._leaf_to_item)
        clone._level_unions = dict(self._level_unions)
        clone.max_token_id = self.max_token_id
        clone._insert(item_id, sequence)
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def allowed_tokens(self, prefix: tuple[int, ...]) -> np.ndarray:
        """Token ids that legally extend ``prefix`` (empty array if none)."""
        table = self.nodes
        return table.child_tokens(table.node_of(prefix))

    def allowed_token_mask(
        self, prefixes: list[tuple[int, ...]], vocab_size: int
    ) -> np.ndarray:
        """Boolean ``(len(prefixes), vocab_size)`` constraint mask.

        Row ``i`` is True exactly at the token ids that legally extend
        ``prefixes[i]`` (all-False for unknown/illegal prefixes).
        """
        if vocab_size <= self.max_token_id:
            raise ValueError(
                f"vocab_size {vocab_size} too small for trie tokens "
                f"(max id {self.max_token_id})"
            )
        mask = np.zeros((len(prefixes), vocab_size), dtype=bool)
        for row, prefix in enumerate(prefixes):
            mask[row, self.allowed_tokens(prefix)] = True
        return mask

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
                return self.nodes.unions[levels[0]]  # the table memoizes single levels
            union = self._union_for_levels(levels[:1])
            for level in levels[1:]:
                union = np.union1d(union, self._union_for_levels((level,)))
            union = self._level_unions.setdefault(levels, _frozen(union))
        return union

    def allowed_token_ids(
        self, nodes: np.ndarray | Sequence[tuple[int, ...]]
    ) -> SparseCandidates:
        """Per-row legal continuations plus the memoized candidate union.

        ``nodes`` is an int array of :attr:`nodes` ids — what a beam
        stepper holds per hypothesis — or a list of token prefixes, looked
        up first.  Returns the (tiny) union of candidate ids for the trie
        levels the rows sit at and a ``(rows, len(union))`` mask in union
        space: for rows at one level that is one gather from the level's
        mask table — no per-row Python and no vocabulary-sized work.
        """
        table = self.nodes
        if not isinstance(nodes, np.ndarray):
            nodes = np.array([table.node_of(p) for p in nodes], dtype=np.int64)
        depths = table.depth[nodes]
        low, high = int(depths.min()), int(depths.max())
        if low == high:
            union = table.unions[low]
            mask = table.masks[low][table.local[nodes]]
        else:  # rows admitted at different levels (continuous joins)
            levels = tuple(np.unique(depths).tolist())
            union = self._union_for_levels(levels)
            mask = np.zeros((nodes.shape[0], union.shape[0]), dtype=bool)
            for level in levels:
                rows = np.flatnonzero(depths == level)
                columns = np.searchsorted(union, table.unions[level])
                mask[np.ix_(rows, columns)] = table.masks[level][table.local[nodes[rows]]]
        return SparseCandidates(nodes=nodes, union=union, mask=mask, table=table)

    def item_at(self, sequence: tuple[int, ...]) -> int:
        """The item id stored at a complete index sequence."""
        sequence = tuple(int(t) for t in sequence)
        try:
            return self._leaf_to_item[sequence]
        except KeyError:
            raise KeyError(f"no item with index sequence {sequence}") from None

    def contains_prefix(self, prefix: tuple[int, ...]) -> bool:
        table = self.nodes
        return table.node_of(prefix) < table.num_real

    @property
    def num_items(self) -> int:
        return len(self._leaf_to_item)

    def all_sequences(self) -> dict[int, tuple[int, ...]]:
        """item_id -> token sequence (a copy)."""
        return {item: seq for seq, item in self._leaf_to_item.items()}

    def subtrie(self, item_ids: "Sequence[int]") -> "IndexTrie":
        """A new trie over the given items' sequences only.

        A narrowed decode does not need one: ``repro.llm.decode_prefill``
        marks a row's candidate paths in this trie's node table
        (:meth:`TrieNodes.path_mask`).  The items are looked up through the
        node table's item → leaf map, so the cost is the candidate set's,
        not the catalog's.  The subtrie is independent of its parent:
        mutating either afterwards does not affect the other.  Raises
        ``KeyError`` for ids not in the trie and ``ValueError`` for an
        empty candidate set.
        """
        item_ids = [int(item) for item in item_ids]
        if not item_ids:
            raise ValueError("cannot build a subtrie from no items")
        table = self.nodes
        rows = table.leaf_rows(item_ids).tolist()
        return IndexTrie(dict(zip(item_ids, map(table.sequences.__getitem__, rows))))
