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
tuples — whose non-root nodes may own their edge's K/V: one read-only
``(layers, 2, heads, len(edge), head_dim)`` block, so a column shared by
many stored prompts is stored once (SGLang's RadixAttention layout).  The
nodes that hold K/V form a subtree hanging off the root; below it the
index holds token tuples only:

* ``insert(prompt_ids, kv, session=...)`` indexes the prompt's tokens and
  decides which of its columns keep K/V.  A session prompt (one its
  caller will extend or repeat) stores all of them.  A keyless prompt
  stores only the columns where it walks an edge an earlier prompt already
  indexed — their second sighting — so the template head, shared history
  prefixes and hot verbatim repeats are cached from their second
  appearance on, while a one-off history tail costs a token tuple, not
  its K/V (caching on the second request, as CDNs do for one-hit
  wonders).  ``columns`` cuts the stored columns straight out of a padded
  decode row; each new block is one copy, and a split copies both halves
  of a K/V edge and an eviction's merge concatenates, so no view keeps a
  dropped column alive.  Every node names one *donor* entry whose key
  covers its edge: the LRU entry a match touches.  Overflow evicts exactly
  one LRU entry (K/V-holding or not) by walking its path — no rebuild.
* ``match(prompt_ids)`` walks the K/V subtree, comparing tuple slices in
  pure Python, as deep as the query agrees with any stored path, and
  hands out the path's blocks as ``PrefixMatch.segments`` with no copy —
  so one stored path serves exact repeats, grown-session prompts (shared
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
    (occupancy) is the sum of every node's K/V block, exact under the lock;
    token-only nodes count nothing.
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
    """One indexed prompt: its token key (any K/V lives on the nodes of its path)."""

    key: tuple[int, ...]


def _frozen(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


def _cut(kv: np.ndarray, ranges: list[tuple[int, int]], lo: int, hi: int) -> np.ndarray:
    """Prompt positions ``lo:hi`` of a row whose positions sit in ``ranges``: one new block."""
    pieces, offset = [], 0  # prompt position of each range's first column
    for start, stop in ranges:
        first, last = max(start, start + lo - offset), min(stop, start + hi - offset)
        if first < last:
            pieces.append(kv[:, :, :, first:last])
        offset += stop - start
    # concatenate always allocates: never an alias of a live cache.
    return _frozen(np.concatenate(pieces, axis=3))


class _Node:
    """Radix node reached over ``edge``; children are keyed by first edge token.

    ``kv`` is the edge's K/V block (``None`` at the root and on token-only
    nodes, whose descendants are all token-only too), ``donor`` a live
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
        LRU capacity in indexed prompts, whether they hold K/V or only
        tokens.  Sized for a template-driven workload: enough keyless
        prompts that a template head or hot query is sighted twice before
        its first sighting is evicted, plus the session prompts whose
        returns hit their previous turn.
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
        self._root = _Node((), None, None)

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
            if child is None or (stored and child.kv is None):
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
        session: bool = True,
    ) -> bool:
        """Index a decoded prompt's tokens and store the K/V of its reusable columns.

        ``kv`` is ``(layers, 2, heads, width, head_dim)`` — K then V of
        every layer, one decode row — whose ``columns`` (unit-step slices of
        the ``width`` axis, inside it, increasing and disjoint; default all
        of it) hold exactly the ``len(prompt_ids)`` prompt positions: a
        padded decode row passes its prefix and suffix ranges.  A
        ``session`` prompt stores the K/V of every column; a keyless one
        (``session=False``) only of the columns an earlier prompt already
        indexed, and the rest as tokens.  Each stored block is copied (once,
        frozen), so callers may hand in views of live decode caches.
        Returns False (and only touches the LRU order) for prompts shorter
        than ``min_prefix_len`` or already stored (``prompt in cache``).
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
            entry = self._entries.get(key)
            path, depth, child, common = self._walk(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if path[-1].kv is not None:  # its whole path holds K/V already
                    return False
            start = 0  # every indexed edge on the path is sighted again: store its K/V
            for node in path[1:]:
                if node.kv is None:
                    node.kv = _cut(kv, ranges, start, start + len(node.edge))
                    self.stats.stored_bytes += node.kv.nbytes
                start += len(node.edge)
            end = path[-1]
            if child is not None:  # the key leaves (or ends inside) an edge: split it there
                if child.kv is None:
                    head = _cut(kv, ranges, depth, depth + common)
                    self.stats.stored_bytes += head.nbytes
                else:
                    head = _frozen(child.kv[:, :, :, :common].copy())
                    child.kv = _frozen(child.kv[:, :, :, common:].copy())
                mid = end.children[key[depth]] = _Node(child.edge[:common], head, child.donor)
                child.edge = child.edge[common:]
                mid.children[child.edge[0]] = child
                path.append(mid)
                end, depth = mid, depth + common
            if entry is None:
                entry = self._entries[key] = _Entry(key=key)
                self.stats.inserts += 1
            if depth < len(key):  # the rest of the key is new: it hangs off as a leaf
                block = None
                if session:
                    block = _cut(kv, ranges, depth, len(key))
                    self.stats.stored_bytes += block.nbytes
                leaf = end.children[key[depth]] = _Node(key[depth:], block, entry)
                end = leaf
            end.entry = entry
            for node in path[1:]:  # newest entry donates: LRU touches keep it, not a stale one
                node.donor = entry
            if len(self._entries) > self.max_entries:
                self._drop(next(iter(self._entries.values())))
            return True

    def _drop(self, entry: _Entry) -> None:
        """Un-index one entry along its own path (caller holds the lock).

        A node no entry uses any more goes with its block; a pass-through
        node left with one child merges into it unless only the node holds
        K/V (the stored prefix stays stored until its last user goes).
        """
        del self._entries[entry.key]
        self.stats.evictions += 1
        path = self._walk(entry.key)[0]
        path[-1].entry = None
        for parent, node in zip(path[-2::-1], path[:0:-1]):  # bottom-up
            only = next(iter(node.children.values())) if len(node.children) == 1 else None
            if node.entry is None and not node.children:
                del parent.children[node.edge[0]]
                if node.kv is not None:
                    self.stats.stored_bytes -= node.kv.nbytes
            elif node.entry is None and only is not None and (only.kv is None) == (node.kv is None):
                del parent.children[node.edge[0]]  # unary pass-through: merge into its child
                only.edge = node.edge + only.edge
                if only.kv is not None:
                    only.kv = _frozen(np.concatenate([node.kv, only.kv], axis=3))
                parent.children[only.edge[0]] = only
            elif node.donor is entry:
                node.donor = node.entry or next(iter(node.children.values())).donor

    def clear(self) -> None:
        """Drop every entry (required after any model-weight change)."""
        with self._lock:
            self._entries.clear()
            self._root = _Node((), None, None)
            self.stats.stored_bytes = 0

    def __contains__(self, prompt_ids: Sequence[int]) -> bool:
        """Whether the *exact* prompt is indexed with its K/V (not merely matchable)."""
        key = tuple(map(int, prompt_ids))
        with self._lock:
            return key in self._entries and self._walk(key)[0][-1].kv is not None

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
