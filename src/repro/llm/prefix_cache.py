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
point where stored prompts diverge or end, edges labelled with token
tuples — whose non-root nodes own their edge's K/V: one read-only
``(layers, 2, heads, len(edge), head_dim)`` block, so a column shared by
many stored prompts is stored once (SGLang's RadixAttention layout):

* ``insert(prompt_ids, kv)`` copies only the columns past the part of the
  path already stored (``columns`` cuts them straight out of a padded
  decode row), splitting at most one edge; a split copies both halves and
  an eviction's merge concatenates, so no view keeps a dropped column
  alive.  Every node names one *donor* entry whose key covers its edge:
  the LRU entry a match touches.  Overflow evicts exactly one LRU entry by
  walking its path — no rebuild.
* ``match(prompt_ids)`` walks the index, comparing tuple slices in pure
  Python, as deep as the query agrees with any stored sequence, and hands
  out the path's blocks as ``PrefixMatch.segments`` with no copy — so
  one stored path serves exact repeats, grown-session prompts (shared
  history prefix), and other users of the same template (shared head).

The decode integration lives in
:func:`repro.llm.generation.decode_prefill`: matched rows skip
the transformer for their cached prefix (each segment is copied once into
the prefill's prompt block, which every layer's
:class:`repro.tensor.BeamKVCache` adopts via ``seed_prompt``), only the
per-row suffix is forwarded, and the block's new columns are filed back.

Thread safety: all public methods take an internal lock.  Stored blocks
are never written: a split, merge or eviction replaces a node's block
instead of editing it, so a :class:`PrefixMatch` handed to one decode
thread stays valid while another thread inserts or evicts.
Invalidation: entries are keyed by token ids under *fixed* model weights
— call :meth:`clear` after any weight update (further tuning, vocabulary
extension) or when switching models.

Catalog churn needs no invalidation here: prompt K/V depends on the
token sequence and the weights only — *not* on the decoding trie — and
LC-Rec registers every per-level index token before tuning, so an
ingested item only adds trie leaves over tokens whose meaning never
changes (:class:`repro.core.LiveCatalog`).  A future delete or re-encode
would bring its own invalidation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["PrefixCacheStats", "PrefixMatch", "PrefixKVCache"]


@dataclass
class PrefixCacheStats:
    """Counters a long-running service (and the benchmark) reads.

    ``token_hit_rate`` is the load-bearing number: the fraction of prompt
    tokens whose transformer forward pass was skipped.  ``stored_bytes``
    (occupancy) is the sum of every node's K/V block, exact under the lock.
    """

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    prompt_tokens: int = 0
    reused_tokens: int = 0
    stored_bytes: int = 0

    @property
    def token_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens served from the cache."""
        return self.reused_tokens / self.prompt_tokens if self.prompt_tokens else 0.0


@dataclass
class _Entry:
    """One stored prompt: its token key (its K/V lives on the nodes of its path)."""

    key: tuple[int, ...]


def _frozen(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


class _Node:
    """Radix node reached over ``edge``; children are keyed by first edge token.

    ``kv`` is the edge's K/V block (``None`` at the root), ``donor`` a live
    entry whose key covers the whole edge, ``entry`` the one ending exactly
    here.  No parent link: paths are re-walked from the root, so dropped
    nodes and their K/V are freed by refcount, not the GC.
    """

    __slots__ = ("edge", "kv", "children", "donor", "entry")

    def __init__(self, edge: tuple[int, ...], kv: np.ndarray | None, donor: _Entry | None):
        self.edge = edge
        self.kv = kv
        self.children: dict[int, _Node] = {}
        self.donor = donor
        self.entry: _Entry | None = None


@dataclass(frozen=True)
class PrefixMatch:
    """A successful lookup: reusable K/V for the first ``length`` tokens.

    ``segments`` are consecutive ``(layers, 2, heads, columns, head_dim)``
    blocks (K then V of every layer) whose columns add up to ``length``:
    the matched radix path, root first.  They are read-only cache storage
    — copy them out (seed a decode cache) without writing into them.
    """

    length: int
    segments: tuple[np.ndarray, ...] = field(repr=False)


class PrefixKVCache:
    """Radix-indexed LRU cache of prompt-prefix K/V tensors.

    Parameters
    ----------
    max_entries:
        LRU capacity in stored prompts.  Sized for a template-driven
        workload: one entry per hot template rendering plus headroom for
        per-user session prompts.
    min_prefix_len:
        Shortest prefix worth reusing (and shortest prompt worth storing).
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
        self._root = _Node((), None, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _walk(self, key: tuple[int, ...]) -> tuple[list[_Node], int, _Node | None, int]:
        """Descend along ``key``: ``(path, depth, child, common)``.

        ``path`` holds the fully matched nodes (root first) and ``depth``
        their token count; ``child`` is the node whose edge ``key`` leaves
        (or ends inside) after ``common >= 1`` tokens, else ``None, 0``.
        """
        path, depth = [self._root], 0
        while depth < len(key):
            child = path[-1].children.get(key[depth])
            if child is None:
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
        path, depth, child, common = self._walk(tuple(prompt_ids[:limit]))
        depth += common
        return (depth if depth >= self.min_prefix_len else 0), path, child, common

    def match(self, prompt_ids: list[int], max_len: int | None = None) -> PrefixMatch | None:
        """Longest cached prefix of ``prompt_ids``, or None.

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
            segments = [node.kv for node in path[1:]]
            if child is not None:
                segments.append(child.kv[:, :, :, :common])
            return PrefixMatch(length=depth, segments=tuple(segments))

    def probe(self, prompt_ids: Sequence[int], max_len: int | None = None) -> int:
        """Matched prefix length a :meth:`match` would return — no side effects.

        Unlike ``match`` this records no stats, touches no LRU order, and
        builds no views; the micro-batcher uses it to group requests by
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
    ) -> bool:
        """Store a decoded prompt's K/V under its token sequence.

        ``kv`` is ``(layers, 2, heads, width, head_dim)`` — K then V of
        every layer, one decode row — whose ``columns`` (unit-step slices of
        the ``width`` axis, inside it, increasing and disjoint; default all
        of it) hold exactly the ``len(prompt_ids)`` prompt positions: a
        padded decode row passes its prefix and suffix ranges.  Only the
        columns past the part of the path already stored are copied (one
        copy, frozen), so callers may hand in views of live decode caches.
        Returns False (and stores nothing) for prompts shorter than
        ``min_prefix_len`` or already stored.
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
            if key in self._entries:
                self._entries.move_to_end(key)
                return False
            entry = self._entries[key] = _Entry(key=key)
            path, depth, child, common = self._walk(key)
            end = path[-1]
            if child is not None:  # the key leaves (or ends inside) an edge: split it there
                mid = end.children[key[depth]] = _Node(
                    child.edge[:common], _frozen(child.kv[:, :, :, :common].copy()), child.donor
                )
                child.edge = child.edge[common:]
                child.kv = _frozen(child.kv[:, :, :, common:].copy())
                mid.children[child.edge[0]] = child
                path.append(mid)
                end, depth = mid, depth + common
            if depth < len(key):  # the rest of the key hangs off as a new leaf
                pieces, offset = [], 0  # prompt positions depth.. of the ranges
                for start, stop in ranges:
                    if start + depth - offset < stop:
                        pieces.append(kv[:, :, :, max(start, start + depth - offset) : stop])
                    offset += stop - start
                # concatenate always allocates: never an alias of a live cache.
                block = _frozen(np.concatenate(pieces, axis=3))
                self.stats.stored_bytes += block.nbytes
                leaf = end.children[key[depth]] = _Node(key[depth:], block, entry)
                end = leaf
            end.entry = entry
            for node in path[1:]:  # newest entry donates: LRU touches keep it, not a stale one
                node.donor = entry
            self.stats.inserts += 1
            if len(self._entries) > self.max_entries:
                self._drop(next(iter(self._entries.values())))
            return True

    def _drop(self, entry: _Entry) -> None:
        """Un-index one entry along its own path (caller holds the lock)."""
        del self._entries[entry.key]
        self.stats.evictions += 1
        path = self._walk(entry.key)[0]
        path[-1].entry = None
        for parent, node in zip(path[-2::-1], path[:0:-1]):  # bottom-up
            if node.entry is None and len(node.children) < 2:
                del parent.children[node.edge[0]]
                if not node.children:
                    self.stats.stored_bytes -= node.kv.nbytes
                for child in node.children.values():  # unary pass-through: merge into it
                    child.edge = node.edge + child.edge
                    child.kv = _frozen(np.concatenate([node.kv, child.kv], axis=3))
                    parent.children[child.edge[0]] = child
            elif node.donor is entry:
                node.donor = node.entry or next(iter(node.children.values())).donor

    def clear(self) -> None:
        """Drop every entry (required after any model-weight change)."""
        with self._lock:
            self._entries.clear()
            self._root = _Node((), None, None)
            self.stats.stored_bytes = 0

    def __contains__(self, prompt_ids: Sequence[int]) -> bool:
        """Whether the *exact* prompt is stored (not merely matchable)."""
        key = tuple(map(int, prompt_ids))
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
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
