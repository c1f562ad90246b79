"""Cross-request prompt-prefix KV cache for the batched serving engine.

LC-Rec renders every serving instruction from a handful of prompt
templates, so concurrent requests share long identical prompt prefixes:
every sequential-recommendation prompt for template 0 starts with the same
~10 tokens, a returning user's prompts share the template head *plus* most
of their interaction history, and a repeated query is a whole-prompt
duplicate.  Re-running the transformer over those shared tokens is pure
waste — key/value tensors at position ``i`` depend only on tokens ``<= i``,
so the K/V of any previously decoded prompt prefix can be reused verbatim.

:class:`PrefixKVCache` is a path-compressed (radix) index — a node per
point where indexed prompts diverge or end, edges labelled with token
tuples — whose non-root nodes may hold their edge's K/V, so a column
shared by many stored prompts is stored once (SGLang's RadixAttention
layout).  Every cached column lives in one pool the cache owns: a
``(slots, layers, 2, heads, head_dim)`` array in an anonymous mapping of
its own, outside the malloc heap that decode scratch is cut from, with a
free stack of slot ids.  A node's K/V is an array of slot ids, so a split
or a merge slices or joins ids and never copies K/V.  The nodes that hold
K/V form a subtree hanging off the root; below it the index holds token
tuples only:

* ``insert(prompt_ids, kv, session=...)`` indexes the prompt's tokens and
  decides which of its columns keep K/V.  A session prompt (one its
  caller will extend or repeat) stores all of them and replaces its
  session's previous prompt, which is dropped along its own path: a grown
  turn's dead tail and a departed user's history leave at once.  A
  keyless prompt stores only the columns where it walks an edge an earlier
  prompt already indexed — their second sighting — so the template head,
  shared history prefixes and hot verbatim repeats are cached from their
  second appearance on, while a one-off history tail costs a token tuple,
  not its K/V (caching on the second request, as CDNs do for one-hit
  wonders).  ``columns`` cuts the stored columns straight out of a padded
  decode row into fresh slots.  Every node names one *donor* entry whose
  key covers its edge: the LRU entry a match touches.  Overflow evicts
  exactly one LRU entry (K/V-holding or not) by walking its path — no
  rebuild.  A dropped node's slots are filled with NaN and go back on the
  free stack, so a read after free cannot pass a parity test by luck.
* ``match(prompt_ids)`` walks the K/V subtree, comparing tuple slices in
  pure Python, as deep as the query agrees with any stored path, and
  copies the path's columns out as one fresh ``PrefixMatch.kv`` block —
  so one stored path serves exact repeats, grown-session prompts (shared
  history prefix), and other users of the same template (shared head).

The decode integration lives in
:func:`repro.llm.generation.decode_prefill`: matched rows skip
the transformer for their cached prefix (each match is copied into the
prefill's prompt block, which every layer's
:class:`repro.tensor.BeamKVCache` adopts via ``seed_prompt``), only the
per-row suffix is forwarded, and the block's new columns are filed back.

Thread safety: all public methods take an internal lock, and slots are
read and written only under it: a match copies its columns out before it
returns, so a slot that a concurrent insert frees and reuses is never
read.  Invalidation: entries are keyed by token ids under *fixed* model
weights — call :meth:`clear` after any weight update (further tuning,
vocabulary extension) or when switching models.

Catalog churn needs no invalidation here: prompt K/V depends on the
token sequence and the weights only — *not* on the decoding trie — and
LC-Rec registers every per-level index token before tuning, so an
ingested item only adds trie leaves over tokens whose meaning never
changes (:class:`repro.core.LiveCatalog`).  A future delete or re-encode
would bring its own invalidation.
"""

from __future__ import annotations

import math
import mmap
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

__all__ = ["PrefixCacheStats", "PrefixMatch", "PrefixKVCache"]

# The pool first reserves room for ``max_entries`` prompts this long
# (``LMConfig.max_seq_len``'s default) and doubles when that runs out.
# Only written slots take memory, so the reservation is address space.
_SLOTS_PER_ENTRY = 256


@dataclass
class PrefixCacheStats:
    """Counters a long-running service (and the benchmark) reads.

    ``token_hit_rate`` is the load-bearing number: the fraction of prompt
    tokens whose transformer forward pass was skipped.  ``stored_bytes``
    (occupancy) is the pool slots in use times one column's bytes, exact
    under the lock; token-only nodes count nothing.  ``evictions`` counts
    LRU overflow only; a session prompt that replaces its session's
    previous one counts in ``superseded``.
    """

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    superseded: int = 0
    prompt_tokens: int = 0
    reused_tokens: int = 0
    stored_bytes: int = 0

    @property
    def token_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from the cache."""
        return self.reused_tokens / self.prompt_tokens if self.prompt_tokens else 0.0


@dataclass
class _Entry:
    """One indexed prompt: its token key and the session whose newest prompt it is."""

    key: tuple[int, ...]
    session: Hashable | None = None


def _reserve(slots: int, column: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """``slots`` zeroed columns in an anonymous mapping of their own.

    The kernel backs a page only when a slot on it is first written, and
    dropping the last reference unmaps the whole pool.  Huge pages are
    refused, so one written column never backs 2 MB.
    """
    nbytes = slots * math.prod(column) * np.dtype(dtype).itemsize
    region = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        region.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(region, dtype=dtype).reshape(slots, *column)


class _SlotPool:
    """Cached K/V, one ``(layers, 2, heads, head_dim)`` column per slot, and a free stack.

    ``free[:num_free]`` are the free slot ids, the next one on top.  Freed
    ids are pushed above the ``fresh`` never-used ones at the bottom, so
    they are reused first, their pages resident already, and fresh ids
    come off in increasing order: every id ever handed out is below
    ``touched``, and a growth copies only those.
    """

    def __init__(self, slots: int, column: tuple[int, ...], dtype: np.dtype):
        self.columns = _reserve(slots, column, dtype)
        self.column_bytes = self.columns[0].nbytes
        self.free = np.arange(slots - 1, -1, -1, dtype=np.int32)
        self.num_free = self.fresh = slots

    @property
    def touched(self) -> int:
        return len(self.columns) - self.fresh

    def take(self, count: int) -> np.ndarray:
        if count > self.num_free:
            self._grow(count)
        self.num_free -= count
        self.fresh = min(self.fresh, self.num_free)
        return self.free[self.num_free : self.num_free + count][::-1].copy()

    def give(self, ids: np.ndarray) -> None:
        """Free ``ids``, poisoned first: a read after free reads NaN, never stale K/V."""
        self.columns[ids] = np.nan
        self.free[self.num_free : self.num_free + ids.size] = ids[::-1]
        self.num_free += ids.size

    def _grow(self, count: int) -> None:
        """Double the pool until ``count`` slots are free; fresh ids go under the freed ones."""
        size = grown = len(self.columns)
        while grown - size + self.num_free < count:
            grown *= 2
        columns = _reserve(grown, self.columns.shape[1:], self.columns.dtype)
        columns[: self.touched] = self.columns[: self.touched]
        free = np.empty(grown, dtype=np.int32)
        added = grown - size  # fresh ids, under the free ones
        free[:added] = np.arange(grown - 1, size - 1, -1)
        free[added : added + self.num_free] = self.free[: self.num_free]
        self.columns, self.free = columns, free
        self.num_free += added
        self.fresh += added


class _Node:
    """Radix node reached over ``edge``; children are keyed by first edge token.

    ``slots`` are the edge's pool slot ids, one per column (``None`` at the
    root and on token-only nodes, whose descendants are all token-only
    too), ``donor`` a live entry whose key covers the whole edge, ``entry``
    the one ending exactly here.  No parent link: paths are re-walked from
    the root, so dropped nodes are freed by refcount, not the GC.
    """

    __slots__ = ("edge", "slots", "children", "donor", "entry")

    def __init__(self, edge: tuple[int, ...], slots: np.ndarray | None, donor: _Entry | None):
        self.edge = edge
        self.slots = slots
        self.children: dict[int, _Node] = {}
        self.donor = donor
        self.entry: _Entry | None = None


@dataclass(frozen=True)
class PrefixMatch:
    """A successful lookup: reusable K/V for the first ``length`` tokens.

    ``kv`` is a ``(layers, 2, heads, length, head_dim)`` block (K then V of
    every layer), copied out of the cache's pool under its lock: the
    caller owns it.
    """

    length: int
    kv: np.ndarray = field(repr=False)


class PrefixKVCache:
    """Radix-indexed LRU cache of prompt-prefix K/V tensors.

    Parameters
    ----------
    max_entries:
        LRU capacity in indexed prompts, whether they hold K/V or only
        tokens.  Sized for a template-driven workload: enough keyless
        prompts that a template head or hot query is sighted twice before
        its first sighting is evicted, plus each live session's newest
        prompt, which its return hits.
    min_prefix_len:
        Shortest prefix worth reusing (and shortest prompt worth indexing).
        Matching only ``<bos>`` saves nothing, so tiny matches are reported
        as misses.

    All methods are safe to call from multiple threads; see the module
    docstring for the invalidation contract.
    """

    def __init__(self, max_entries: int = 64, min_prefix_len: int = 4):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if min_prefix_len < 1:
            raise ValueError("min_prefix_len must be positive")
        self.max_entries = max_entries
        self.min_prefix_len = min_prefix_len
        self.stats = PrefixCacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[int, ...], _Entry] = OrderedDict()
        self._sessions: dict[Hashable, _Entry] = {}  # each session's newest prompt
        self._root = _Node((), None, None)
        self._pool: _SlotPool | None = None  # reserved by the first stored column

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _walk(
        self, key: tuple[int, ...], stored: bool = False
    ) -> tuple[list[_Node], int, _Node | None, int]:
        """Descend along ``key``: ``(path, depth, child, common)``.

        ``path`` holds the fully matched nodes (root first) and ``depth``
        their token count; ``child`` is the node whose edge ``key`` leaves
        (or ends inside) after ``common >= 1`` tokens, else ``None, 0``.
        ``stored`` keeps the walk inside the K/V subtree.
        """
        path, depth = [self._root], 0
        while depth < len(key):
            child = path[-1].children.get(key[depth])
            if child is None or (stored and child.slots is None):
                break
            edge = child.edge
            if key[depth : depth + len(edge)] != edge:
                common, stop = 1, min(len(edge), len(key) - depth)
                while common < stop and key[depth + common] == edge[common]:
                    common += 1
                return path, depth, child, common
            path.append(child)
            depth += len(edge)
        return path, depth, None, 0

    def _longest(
        self, prompt_ids: Sequence[int], max_len: int | None
    ) -> tuple[int, list[_Node], _Node | None, int]:
        """:meth:`_walk` of the capped query, its matched length first (0 under the floor)."""
        limit = len(prompt_ids) if max_len is None else max(0, min(max_len, len(prompt_ids)))
        path, depth, child, common = self._walk(tuple(prompt_ids[:limit]), stored=True)
        depth += common
        return (depth if depth >= self.min_prefix_len else 0), path, child, common

    def match(self, prompt_ids: list[int], max_len: int | None = None) -> PrefixMatch | None:
        """Longest prefix of ``prompt_ids`` whose K/V is stored, or None.

        ``max_len`` caps the matched length (decoding needs at least one
        real suffix token to forward, so callers pass ``len(prompt) - 1``).
        Matches shorter than ``min_prefix_len`` count as misses.
        """
        with self._lock:
            self.stats.lookups += 1
            self.stats.prompt_tokens += len(prompt_ids)
            depth, path, child, common = self._longest(prompt_ids, max_len)
            if not depth:
                return None
            self._entries.move_to_end((child or path[-1]).donor.key)  # LRU touch
            self.stats.hits += 1
            self.stats.reused_tokens += depth
            ids = [node.slots for node in path[1:]]
            if child is not None:
                ids.append(child.slots[:common])
            kv = self._pool.columns.take(np.concatenate(ids), axis=0)
            return PrefixMatch(length=depth, kv=kv.transpose(1, 2, 3, 0, 4))

    def probe(self, prompt_ids: Sequence[int], max_len: int | None = None) -> int:
        """Matched prefix length a :meth:`match` would return — no side effects.

        Unlike ``match`` this records no stats, touches no LRU order, and
        copies no K/V; the micro-batcher uses it to group requests by
        *effective* (post-cache) prompt length, so near-full hits are not
        co-batched with misses whose long suffixes would dictate the padded
        forward width anyway.
        """
        with self._lock:
            return self._longest(prompt_ids, max_len)[0]

    # ------------------------------------------------------------------
    # Insertion and eviction
    # ------------------------------------------------------------------
    def insert(
        self,
        prompt_ids: list[int],
        kv: np.ndarray,
        *,
        columns: Sequence[slice] = (slice(None),),
        session: Hashable | None = None,
    ) -> bool:
        """Index a decoded prompt's tokens and store the K/V of its reusable columns.

        ``kv`` is ``(layers, 2, heads, width, head_dim)`` — K then V of
        every layer, one decode row — whose ``columns`` (unit-step slices of
        the ``width`` axis, inside it, increasing and disjoint; default all
        of it) hold exactly the ``len(prompt_ids)`` prompt positions: a
        padded decode row passes its prefix and suffix ranges.  A prompt
        with a ``session`` key stores the K/V of every column and becomes
        that session's newest prompt: the session's previous one is
        dropped (``stats.superseded``).  A keyless one (``session=None``)
        stores only the columns an earlier prompt already indexed, and the
        rest as tokens.  Stored columns are copied into the cache's pool,
        so callers may hand in views of live decode caches.  Returns False
        (and only touches the LRU order and the session's newest prompt)
        for prompts shorter than ``min_prefix_len`` or already stored
        (``prompt in cache``).
        """
        key = tuple(map(int, prompt_ids))
        width, ranges = kv.shape[3], [(0, 0)]
        for cut in columns:  # a misfiled column would seed silently wrong K/V later
            start, stop = cut.start or 0, width if cut.stop is None else cut.stop
            if cut.step not in (None, 1) or not ranges[-1][1] <= start <= stop <= width:
                raise ValueError(f"columns {columns} are not in-order unit-step ranges of {width}")
            ranges.append((start, stop))
        if sum(stop - start for start, stop in ranges) != len(key):
            raise ValueError(f"K/V columns {columns} do not hold the {len(key)} prompt positions")
        if len(key) < self.min_prefix_len:
            return False
        with self._lock:
            column = kv.shape[:3] + kv.shape[4:]
            if self._pool is not None and self._pool.columns.shape[1:] != column:
                raise ValueError(f"K/V columns {column} do not fit the cache's pool: clear() it")
            entry = self._entries.get(key)
            path, depth, child, common = self._walk(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if path[-1].slots is not None:  # its whole path holds K/V already
                    if session is not None:
                        self._own(entry, session)
                    return False
            start = 0  # every indexed edge on the path is sighted again: store its K/V
            for node in path[1:]:
                if node.slots is None:
                    node.slots = self._store(kv, ranges, start, start + len(node.edge))
                start += len(node.edge)
            end = path[-1]
            if child is not None:  # the key leaves (or ends inside) an edge: split it there
                if child.slots is None:
                    head = self._store(kv, ranges, depth, depth + common)
                else:
                    head, child.slots = child.slots[:common], child.slots[common:]
                mid = end.children[key[depth]] = _Node(child.edge[:common], head, child.donor)
                child.edge = child.edge[common:]
                mid.children[child.edge[0]] = child
                path.append(mid)
                end, depth = mid, depth + common
            if entry is None:
                entry = self._entries[key] = _Entry(key=key)
                self.stats.inserts += 1
            if depth < len(key):  # the rest of the key is new: it hangs off as a leaf
                slots = None if session is None else self._store(kv, ranges, depth, len(key))
                leaf = end.children[key[depth]] = _Node(key[depth:], slots, entry)
                end = leaf
            end.entry = entry
            for node in path[1:]:  # newest entry donates: LRU touches keep it, not a stale one
                node.donor = entry
            if session is not None:
                self._own(entry, session)
            if len(self._entries) > self.max_entries:
                self._drop(next(iter(self._entries.values())))
                self.stats.evictions += 1
            return True

    def _store(
        self, kv: np.ndarray, ranges: list[tuple[int, int]], lo: int, hi: int
    ) -> np.ndarray:
        """Copy positions ``lo:hi`` of a row whose positions sit in ``ranges`` to new slots."""
        if self._pool is None:
            slots = self.max_entries * _SLOTS_PER_ENTRY
            self._pool = _SlotPool(slots, kv.shape[:3] + kv.shape[4:], kv.dtype)
        ids = self._pool.take(hi - lo)
        filled, offset = 0, 0  # slots written; prompt position of each range's first column
        for start, stop in ranges:
            first, last = max(start, start + lo - offset), min(stop, start + hi - offset)
            if first < last:
                target = ids[filled : filled + last - first]
                self._pool.columns[target] = kv[:, :, :, first:last].transpose(3, 0, 1, 2, 4)
                filled += last - first
            offset += stop - start
        self.stats.stored_bytes += ids.size * self._pool.column_bytes
        return ids

    def _own(self, entry: _Entry, session: Hashable) -> None:
        """Make ``entry`` ``session``'s newest prompt, dropping the one it replaces."""
        previous = self._sessions.get(session)
        if previous is entry:
            return
        if entry.session is not None:  # another session's prompt, repeated: it changes hands
            del self._sessions[entry.session]
        entry.session = session
        self._sessions[session] = entry
        if previous is not None:
            previous.session = None
            self._drop(previous)
            self.stats.superseded += 1

    def _drop(self, entry: _Entry) -> None:
        """Un-index one entry along its own path (caller holds the lock).

        A node no entry uses any more goes, its slots back to the pool; a
        pass-through node left with one child merges into it unless only
        the node holds K/V (the stored prefix stays stored until its last
        user goes).
        """
        del self._entries[entry.key]
        if entry.session is not None:
            del self._sessions[entry.session]
        path = self._walk(entry.key)[0]
        path[-1].entry = None
        for parent, node in zip(path[-2::-1], path[:0:-1]):  # bottom-up
            only = next(iter(node.children.values())) if len(node.children) == 1 else None
            if node.entry is None and not node.children:
                del parent.children[node.edge[0]]
                if node.slots is not None:
                    self._pool.give(node.slots)
                    self.stats.stored_bytes -= node.slots.size * self._pool.column_bytes
            elif node.entry is None and only is not None and (only.slots is None) == (
                node.slots is None
            ):
                del parent.children[node.edge[0]]  # unary pass-through: merge into its child
                only.edge = node.edge + only.edge
                if only.slots is not None:
                    only.slots = np.concatenate([node.slots, only.slots])
                parent.children[only.edge[0]] = only
            elif node.donor is entry:
                node.donor = node.entry or next(iter(node.children.values())).donor

    def clear(self) -> None:
        """Drop every entry and release the pool (required after any model-weight change)."""
        with self._lock:
            self._entries.clear()
            self._sessions.clear()
            self._root = _Node((), None, None)
            self._pool = None  # the last reference: the whole mapping is unmapped
            self.stats.stored_bytes = 0

    def __contains__(self, prompt_ids: Sequence[int]) -> bool:
        """Whether the *exact* prompt is indexed with its K/V (not merely matchable)."""
        key = tuple(map(int, prompt_ids))
        with self._lock:
            return key in self._entries and self._walk(key)[0][-1].slots is not None

    def __len__(self) -> int:
        """Indexed prompts, with or without K/V: what ``max_entries`` caps."""
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Tracer seam: no serving path calls this.  ``perf/tracing.py`` wraps
    # it by name (``llm.prefix_cache.sync_catalog``), so it stays, raising,
    # until that wrapper is dropped.
    # ------------------------------------------------------------------
    def sync_catalog(self, *args, **kwargs) -> int:
        """Deleted: an ingest only adds trie leaves, so no cached prompt goes stale."""
        raise NotImplementedError("the catalog only grows: no prompt K/V goes stale")
