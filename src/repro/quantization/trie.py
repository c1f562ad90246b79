"""Prefix trie over item-index token sequences.

Built from the learned item indices, the trie drives constrained beam
search: at each decoding level only tokens that extend some *real* item's
index are allowed (paper Sec. III-D2), so generation can never produce an
out-of-catalog item.

Beyond membership queries, the trie is the *sparsity oracle* of the decode
hot path: a trie level has at most ``codebook_size`` distinct continuations
out of a vocabulary that is one to two orders of magnitude larger, and
:meth:`IndexTrie.allowed_token_ids` exposes exactly that structure — the
per-row legal continuations plus a per-level *candidate union* — so the
language model can compute logits for the candidate tokens only (see
``TinyLlama.lm_head_gather``) instead of the full vocabulary.

The trie *is* a table of arrays: one integer id per prefix, children as
contiguous id ranges, leaf → item / sequence arrays and each node's column
in its level's union, so a beam stepper carries one node id per hypothesis
and every per-hypothesis query is an array gather: a hypothesis's legal
continuations are the (hypothesis, child) pairs of :meth:`IndexTrie.expand`,
and each child's logit is column ``column[child]`` of the level's union.
The constructor builds every array; nothing is built lazily, so no decode
ever pays for a build.

An :class:`IndexTrie` is immutable.  Catalog growth goes through
:meth:`IndexTrie.with_item`, which returns a new trie with one more item
and leaves ``self`` untouched — in-flight decodes pinned to it keep
decoding against exactly the catalog they started with — so the build
runs where the item is inserted (``LiveCatalog.ingest``, on the ingesting
thread).  Level unions are read-only and keep their identity across
``with_item`` whenever the insertion does not change them, which the
gathered output-head memo keys on: the memo stays warm across a catalog
swap.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["IndexTrie", "SparseCandidates"]

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


def _token_rows(sequences: Sequence[Sequence[int]]) -> np.ndarray:
    """Equal-length token sequences as an ``(n, levels)`` int64 array.

    Raises ``ValueError`` for a negative or non-integral token id: node
    lookups address children by ``parent * stride + token``, so a negative
    id would alias another node's edge, and a fractional one would be
    silently truncated.
    """
    raw = np.asarray(sequences)
    numeric = raw.dtype.kind in "iuf" and np.isfinite(raw).all()
    rows = raw.astype(np.int64) if numeric else None
    if rows is None or not np.array_equal(rows, raw):
        raise ValueError(f"token ids must be integers: {raw.tolist()}")
    if (rows < 0).any():
        raise ValueError(f"token ids must be non-negative: {raw.tolist()}")
    return rows


@dataclass(frozen=True)
class SparseCandidates:
    """Legal continuations of a batch of trie nodes, in candidate space.

    ``nodes`` are the rows' node ids in ``trie``.  ``union`` is the sorted
    union of every candidate token id at the trie level the rows sit at
    (a stable, read-only array — its identity is a valid cache key for
    gathered weight slices).  Row ``i``'s legal continuations are its
    node's children (:meth:`IndexTrie.expand`); child ``c`` sits at column
    ``trie.column[c]`` of ``union``.
    """

    nodes: np.ndarray  # (rows,) node ids
    union: np.ndarray  # sorted union over the rows' trie level
    trie: IndexTrie = field(repr=False, compare=False)

    def is_forced(self, alive: np.ndarray | None = None) -> bool:
        """Whether every (alive) row has exactly one legal continuation.

        ``alive`` optionally marks rows that still matter (beam rows with a
        finite score); dead filler rows may have any number of legal
        continuations — including zero — without breaking forcedness.
        """
        single = self.trie.num_children[self.nodes] == 1
        if alive is not None:
            single |= ~alive
        return bool(single.all())

    def forced_tokens(self) -> np.ndarray:
        """The first legal continuation per row (0, the decode's pad id, for childless rows)."""
        first = self.trie.first_token[self.nodes]
        return np.where(first >= 0, first, 0)


class IndexTrie:
    """Maps token-id prefixes to allowed continuations and leaf item ids.

    Node ids are level-major: the root is ``0``, then every depth-1 prefix
    in token order, then every depth-2 prefix in lexicographic order, …
    then the leaves (depth ``num_levels``), one per item.  A node's children
    are therefore the consecutive ids ``first_child[n] .. first_child[n] +
    num_children[n]``, in token order, and leaf ``level_start[L] + i`` holds
    item ``items[i]``, whose token tuple is ``sequences[i]`` (prebuilt, so a
    retiring beam builds no tuples; ``sequences`` is sorted).  Past the
    ``num_real`` real ids sit one *dead* node per depth ``d`` (id
    ``num_real + d``): the node of any length-``d`` prefix no item has, with
    no children — what a ``-inf`` hypothesis that picked an illegal token
    holds, so depth stays readable off every id.

    Per node (arrays of length :attr:`size`): ``depth``, ``token`` (the
    token leading into it; ``-1`` for the root and dead nodes),
    ``num_children``, ``first_child`` (a dead node when childless),
    ``first_token`` (its first child's token, ``-1`` when childless) and
    ``column`` (the position of ``token[n]`` in ``unions[depth[n] - 1]``;
    ``-1`` for the root and dead nodes).  Per depth ``d``: ``unions[d]``,
    the sorted union of the tokens at trie level ``d``.  Every public
    array is read-only and nothing changes after the constructor returns.
    """

    def __init__(self, sequences: dict[int, tuple[int, ...]]):
        """Build from ``{item_id: (token_id, token_id, ...)}``.

        Every sequence must have the same length, every token id must be a
        non-negative integer, and sequences must be unique (one leaf = one
        item) — the uniqueness the USM step provides.
        """
        if not sequences:
            raise ValueError("cannot build a trie from no sequences")
        lengths = {len(seq) for seq in sequences.values()}
        if len(lengths) != 1:
            raise ValueError(f"all index sequences must share a length: {lengths}")
        if 0 in lengths:
            raise ValueError("index sequences must be non-empty")
        rows = _token_rows(list(sequences.values()))
        items = np.fromiter(sequences, dtype=np.int64, count=len(sequences))
        order = np.lexsort(rows.T[::-1])
        rows, items = rows[order], items[order]
        same = (rows[1:] == rows[:-1]).all(axis=1)
        if same.any():  # a stable sort keeps the earlier item first
            row = int(np.argmax(same))
            raise ValueError(
                f"duplicate index sequence {tuple(rows[row].tolist())} "
                f"for items {items[row]} and {items[row + 1]}"
            )
        self._build(rows, items, tuple(map(tuple, rows.tolist())), ())

    def _build(
        self,
        rows: np.ndarray,
        items: np.ndarray,
        sequences: tuple[tuple[int, ...], ...],
        previous_unions: Sequence[np.ndarray],
    ) -> None:
        """Every node array, from the lexicographically sorted ``rows``.

        ``previous_unions`` are the unions of the trie this one extends: a
        level whose union is unchanged keeps that array object.
        """
        count, levels = rows.shape
        # starts[d, i]: sorted row i begins a new depth-(d + 1) prefix.
        starts = np.ones((levels, count), dtype=bool)
        if count > 1:
            starts[:, 1:] = np.logical_or.accumulate(rows[1:] != rows[:-1], axis=1).T
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
            starting = np.flatnonzero(starts[d])
            ids = slice(level_start[d + 1], level_start[d + 2])
            parent[ids] = row_node[starting]
            token[ids] = rows[starting, d]
            first_row[ids] = starting
            row_node = level_start[d + 1] + np.cumsum(starts[d]) - 1
        num_children = np.zeros(size, dtype=np.int64)
        num_children[:real] = np.bincount(parent[1:], minlength=real)
        # Children are grouped by parent in id order, starting at id 1.
        first_child = real + np.minimum(depth + 1, levels)
        has = num_children > 0
        first_child[has] = (np.cumsum(num_children) - num_children + 1)[has]
        first_token = np.where(has, token[first_child], -1)
        column = np.full(size, -1, dtype=np.int64)

        self.num_levels = levels
        self.num_real = real
        self.size = size
        self.level_start = _frozen(level_start)
        self.depth = _frozen(depth)
        self.token = _frozen(token)
        self.num_children = _frozen(num_children)
        self.first_child = _frozen(first_child)
        self.first_token = _frozen(first_token)
        self.sequences = sequences
        self.items = _frozen(items)
        self._rows = _frozen(rows)
        self._first_row = first_row
        self._item_order = np.argsort(items, kind="stable")
        self._sorted_items = items[self._item_order]
        self._stride = int(rows.max()) + 1
        self._edge_keys = parent[1:] * self._stride + token[1:real]  # edge e -> node e + 1
        self.unions: list[np.ndarray] = []
        for d in range(levels + 1):
            children = slice(level_start[d + 1], level_start[d + 2]) if d < levels else _EMPTY
            union = _sorted_unique(token[children])
            if d < len(previous_unions) and np.array_equal(previous_unions[d], union):
                union = previous_unions[d]
            column[children] = np.searchsorted(union, token[children])
            self.unions.append(_frozen(union))
        self.column = _frozen(column)

    def with_item(self, item_id: int, sequence: tuple[int, ...]) -> "IndexTrie":
        """A new trie holding every item of this one plus ``item_id``.

        ``self`` is left untouched.  The sequence must have the trie's
        depth, non-negative integer tokens, and be unused; the item id must
        be new.  The new row is inserted at its sorted position and the
        node arrays re-derived from the sorted rows; every level union the
        insertion does not change is the same array object as in ``self``,
        so the gathered output-head memo keyed on it stays warm across a
        catalog version swap.
        """
        row = _token_rows([sequence])
        if row.shape[1] != self.num_levels:
            raise ValueError(
                f"sequence depth {row.shape[1]} does not match trie depth {self.num_levels}"
            )
        new = tuple(row[0].tolist())
        position = bisect.bisect_left(self.sequences, new)
        if position < len(self.sequences) and self.sequences[position] == new:
            raise ValueError(
                f"duplicate index sequence {new} for items "
                f"{self.items[position]} and {item_id}"
            )
        if (self.items == item_id).any():
            raise ValueError(f"item {item_id} already has an index sequence")
        snapshot = IndexTrie.__new__(IndexTrie)
        snapshot._build(
            np.insert(self._rows, position, row[0], axis=0),
            np.insert(self.items, position, item_id),
            self.sequences[:position] + (new,) + self.sequences[position:],
            self.unions,
        )
        return snapshot

    # ------------------------------------------------------------------
    # Node queries
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

    def allowed_token_ids(
        self, nodes: np.ndarray | Sequence[tuple[int, ...]]
    ) -> SparseCandidates:
        """Per-row legal continuations plus the candidate union.

        ``nodes`` is an int array of node ids — what a beam stepper holds
        per hypothesis — or a list of token prefixes, looked up first.  All
        of them must sit at one depth (a decode cohort steps in lockstep):
        nodes at different depths raise ``ValueError``.  Returns the nodes
        with their level's (tiny) candidate union; each row's legal
        continuations are its node's children (:meth:`expand`), at union
        columns :attr:`column` — no per-row Python and no vocabulary-sized
        work.
        """
        if not isinstance(nodes, np.ndarray):
            nodes = np.array([self.node_of(p) for p in nodes], dtype=np.int64)
        depths = self.depth[nodes]
        level = int(depths.min())
        if depths.max() != level:
            raise ValueError(
                f"nodes sit at depths {sorted(set(depths.tolist()))}: one decode steps one level"
            )
        return SparseCandidates(nodes=nodes, union=self.unions[level], trie=self)

    # ------------------------------------------------------------------
    # Per-prefix queries (the single-request oracles and tests)
    # ------------------------------------------------------------------
    def allowed_tokens(self, prefix: tuple[int, ...]) -> np.ndarray:
        """Token ids that legally extend ``prefix`` (empty array if none)."""
        return self.child_tokens(self.node_of(prefix))

    def item_at(self, sequence: tuple[int, ...]) -> int:
        """The item id stored at a complete index sequence."""
        sequence = tuple(int(t) for t in sequence)
        row = bisect.bisect_left(self.sequences, sequence)
        if row == len(self.sequences) or self.sequences[row] != sequence:
            raise KeyError(f"no item with index sequence {sequence}")
        return int(self.items[row])

    def contains_prefix(self, prefix: tuple[int, ...]) -> bool:
        return self.node_of(prefix) < self.num_real

    @property
    def num_items(self) -> int:
        return int(self.items.shape[0])

    def all_sequences(self) -> dict[int, tuple[int, ...]]:
        """item_id -> token sequence (a new dict)."""
        return dict(zip(self.items.tolist(), self.sequences))

    # ------------------------------------------------------------------
    # Tracer seams: no serving path calls these.  ``perf/tracing.py`` wraps
    # them by name (``quantization.trie.mask`` / ``.subtrie``), so they stay
    # until those wrappers are dropped.
    # ------------------------------------------------------------------
    def allowed_token_mask(
        self, prefixes: list[tuple[int, ...]], vocab_size: int
    ) -> np.ndarray:
        """Boolean ``(len(prefixes), vocab_size)`` constraint mask.

        Row ``i`` is True exactly at the token ids that legally extend
        ``prefixes[i]`` (all-False for unknown/illegal prefixes).
        """
        if vocab_size < self._stride:
            raise ValueError(
                f"vocab_size {vocab_size} too small for trie tokens "
                f"(max id {self._stride - 1})"
            )
        mask = np.zeros((len(prefixes), vocab_size), dtype=bool)
        for row, prefix in enumerate(prefixes):
            mask[row, self.allowed_tokens(prefix)] = True
        return mask

    def level_union(self, level: int) -> np.ndarray:
        """``unions[level]``: the sorted token ids at trie depth ``level``."""
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range for depth {self.num_levels}")
        return self.unions[level]

    def union_for_levels(self, levels: Sequence[int]) -> np.ndarray:
        """Sorted union of the token ids at any depth in ``levels``.

        One level's union is ``unions[level]`` itself.
        """
        normalized = sorted({int(level) for level in levels})
        if not normalized:
            raise ValueError("levels must be non-empty")
        for level in normalized:
            if not 0 <= level < self.num_levels:
                raise ValueError(f"level {level} out of range for depth {self.num_levels}")
        return functools.reduce(np.union1d, (self.unions[level] for level in normalized))

    def subtrie(self, item_ids: Sequence[int]) -> "IndexTrie":
        """A new trie over the given items' sequences only.

        A narrowed decode does not need one: ``repro.llm.decode_prefill``
        marks a row's candidate paths in this trie (:meth:`path_mask`).
        Raises ``KeyError`` for ids not in the trie and ``ValueError`` for
        an empty candidate set.
        """
        item_ids = [int(item) for item in item_ids]
        if not item_ids:
            raise ValueError("cannot build a subtrie from no items")
        rows = self.leaf_rows(item_ids).tolist()
        return IndexTrie(dict(zip(item_ids, map(self.sequences.__getitem__, rows))))
