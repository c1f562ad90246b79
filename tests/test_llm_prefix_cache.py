"""Cross-request prefix KV cache: radix-index semantics, eviction, decode parity."""

import sys
import threading
import tracemalloc
from os.path import commonprefix

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import (
    LMConfig,
    PrefixKVCache,
    TinyLlama,
    beam_search_items_single,
    ranked_item_ids,
)
from repro.quantization.trie import IndexTrie
from repro.serving import LCRecEngine, RecommendationService

from helpers import decode_prompts


def fake_kvs(length, layers=2, heads=2, head_dim=4, fill=1.0):
    """A one-row prompt K/V block ``(layers, 2, heads, length, head_dim)``."""
    block = np.empty((layers, 2, heads, length, head_dim), dtype=np.float32)
    for layer in range(layers):
        block[layer, 0] = fill + layer
        block[layer, 1] = fill + layer + 100.0
    return block


def prefix_kvs(key, head_dim=2):
    """One-layer K/V block whose column ``j`` encodes ``key[: j + 1]`` and nothing else.

    Any stored path covering a prefix holds the same columns for it, so a
    match can be checked column by column against the *query* alone.
    """
    codes, code = [], 7
    for token in key:
        code = (code * 31 + token + 1) % 65521  # exact in float32
        codes.append(code)
    keys = np.array(codes, dtype=np.float32).reshape(1, len(key), 1).repeat(head_dim, axis=2)
    return np.stack([keys, keys + 0.5])[None]


def own(key):
    """A session key no other prompt shares: the prompt is stored whole and replaces nothing."""
    return ("own", tuple(key))


def matched_kv(match):
    """The K/V a match hands out, as one ``(layers, 2, heads, length, head_dim)`` array."""
    assert match.kv.shape[3] == match.length
    return match.kv


def assert_match_is_prefix_of(match, query):
    """The K/V a match hands out is exactly what was inserted for ``query[:length]``."""
    want = prefix_kvs(query, head_dim=match.kv.shape[4])
    np.testing.assert_array_equal(matched_kv(match), want[:, :, :, : match.length])


def oracle_match_len(cache, query, max_len=None, stored=None):
    """Brute force: longest prefix, capped and floored, in ``stored``.

    ``stored`` is the set of prefixes whose K/V the cache holds; ``None``
    means every prefix of a live key (only whole-prompt inserts happened).
    """
    limit = len(query) if max_len is None else max(0, min(max_len, len(query)))
    capped = tuple(query[:limit])
    if stored is None:
        best = max((len(commonprefix([key, capped])) for key in cache._entries), default=0)
    else:
        best = next((d for d in range(limit, 0, -1) if capped[:d] in stored), 0)
    return best if best >= cache.min_prefix_len else 0


def indexed_prefixes(cache):
    """Every non-empty prefix of a live key: what the index holds, K/V or not."""
    return {key[:i] for key in cache._entries for i in range(1, len(key) + 1)}


def stored_prefixes(cache):
    """Every prefix whose column the index holds K/V for, read off the nodes."""
    held, stack = set(), [((), child) for child in cache._root.children.values()]
    while stack:
        above, node = stack.pop()
        prefix = above + node.edge
        if node.slots is not None:
            held.update(prefix[:i] for i in range(len(above) + 1, len(prefix) + 1))
        stack.extend((prefix, child) for child in node.children.values())
    return held


def drop_entries_mentioning(cache, tokens):
    """Un-index every entry whose key contains any of ``tokens``; returns how many.

    Drives ``_drop`` — the one un-index path, which LRU eviction and
    supersession take — under the cache lock, so the radix bookkeeping is
    checked on drops out of any branch, not only on whichever entry the
    LRU order names.
    """
    stale = set(tokens)
    with cache._lock:
        doomed = [entry for entry in cache._entries.values() if not stale.isdisjoint(entry.key)]
        for entry in doomed:
            cache._drop(entry)
    return len(doomed)


def check_pool(cache, held):
    """Slots in use x column bytes = ``stored_bytes``, each held by one node, none also free."""
    pool = cache._pool
    if pool is None:
        assert not held and cache.stats.stored_bytes == 0
        return
    ids = np.concatenate(held) if held else np.empty(0, dtype=np.int32)
    free = pool.free[: pool.num_free]
    assert len(np.unique(ids)) == ids.size, "a slot belongs to two nodes"
    assert len(pool.columns) - pool.num_free == ids.size and not np.isin(ids, free).any()
    assert len(np.unique(free)) == free.size and (free < pool.touched).sum() == (
        pool.touched - ids.size
    ), "the free stack lost or repeated a slot"
    assert ids.size * pool.columns[0].nbytes == cache.stats.stored_bytes
    assert not np.isnan(pool.columns[ids]).any(), "a held slot reads poisoned K/V"


def check_index(cache):
    """Structural invariants of the radix index (see ``_Node``) and its slot pool."""
    live = cache._entries
    assert len(live) <= cache.max_entries
    root = cache._root
    assert root.entry is None and root.edge == () and root.slots is None
    nodes, unary, ended, held = 0, 0, set(), []
    stack = [((), True, child) for child in root.children.values()]
    assert all(first == child.edge[0] for first, child in root.children.items())
    while stack:
        above, above_holds_kv, node = stack.pop()
        nodes += 1
        prefix = above + node.edge
        assert node.edge, "empty edge"
        if node.slots is not None:
            assert above_holds_kv, "a K/V node below a token-only one: no match reaches it"
            assert node.slots.shape == (len(node.edge),), "slots and edge disagree on columns"
            held.append(node.slots)
        assert live.get(node.donor.key) is node.donor, "donor is not a live entry"
        assert node.donor.key[: len(prefix)] == prefix, "donor does not cover the node"
        if node.entry is None:
            # A drop keeps a K/V node above a token-only only child (its
            # prefix stays stored); any other pass-through node is merged.
            assert len(node.children) >= 2 or node.slots is not None, (
                "unary pass-through node left unmerged"
            )
            unary += len(node.children) == 1
        else:
            assert node.entry.key == prefix and live.get(prefix) is node.entry
            ended.add(prefix)
        for first, child in node.children.items():
            assert first == child.edge[0]
            stack.append((prefix, node.slots is not None, child))
    assert ended == set(live), "index and LRU table disagree about what is indexed"
    check_pool(cache, held)
    # Each session names one live entry, and that entry names it back.
    assert all(live.get(e.key) is e and e.session == s for s, e in cache._sessions.items())
    assert all(cache._sessions[e.session] is e for e in live.values() if e.session is not None)
    assert nodes - unary <= 2 * len(live)  # so an empty cache is a bare root: back to baseline


class TestRadixIndexModel:
    """Random op sequences against a brute-force longest-common-prefix oracle."""

    OPS = ("insert", "keyless", "match", "touch", "probe", "drop", "clear")
    SESSIONS = ("a", "b", "c")

    @settings(max_examples=300, deadline=None)
    @given(
        max_entries=st.sampled_from([1, 2, 3, 8]),
        min_prefix_len=st.integers(1, 3),
        # Hypothesis seeds (and on failure reports) the generator; drawing the ops
        # from it directly reaches deep, branching states that element-by-element
        # list strategies almost never build.
        rng=st.randoms(use_true_random=True),
    )
    def test_matches_oracle_and_keeps_invariants(self, max_entries, min_prefix_len, rng):
        cache = PrefixKVCache(max_entries=max_entries, min_prefix_len=min_prefix_len)
        stored = set()  # prefixes whose K/V the cache must hold
        newest = {}  # session -> its newest prompt still indexed
        for _ in range(50):
            (op,) = rng.choices(self.OPS, weights=(6, 6, 4, 3, 2, 2, 0.2))
            # Three common tokens so prefixes collide constantly, three rare ones so an
            # un-index can drop one entry out of a branch instead of the whole branch.
            key = rng.choices(range(6), weights=(6, 6, 6, 1, 1, 1), k=rng.randint(0, 7))
            max_len = rng.choice([None, None, *range(-2, 9)])
            if op in ("insert", "keyless"):
                session = rng.choice(self.SESSIONS) if op == "insert" else None
                lru = list(cache._entries)
                evictions, superseded = cache.stats.evictions, cache.stats.superseded
                indexed = len(key) >= min_prefix_len
                changes = indexed and key not in cache
                # A session stores every column; a keyless prompt those it sights again.
                prefixes = {tuple(key[:i]) for i in range(1, len(key) + 1)}
                sighted = prefixes if session else prefixes & indexed_prefixes(cache)
                assert cache.insert(key, prefix_kvs(key), session=session) == changes
                if changes:
                    stored |= sighted
                if indexed:  # the key goes (or moves) to the LRU end
                    lru = [live for live in lru if live != tuple(key)] + [tuple(key)]
                replaced = newest.get(session) if indexed and session else None
                if replaced is not None and replaced != tuple(key):  # supersession
                    lru.remove(replaced)
                    assert cache.stats.superseded == superseded + 1
                else:
                    assert cache.stats.superseded == superseded
                if indexed and session:
                    newest = {s: k for s, k in newest.items() if k != tuple(key)}
                    newest[session] = tuple(key)
                if len(lru) > max_entries:  # overflow: exactly the LRU goes
                    lru.pop(0)
                    assert cache.stats.evictions == evictions + 1
                else:
                    assert cache.stats.evictions == evictions
                assert list(cache._entries) == lru
                assert (key in cache) == (indexed and tuple(key) in sighted)
            elif op in ("match", "touch"):
                if op == "touch" and cache._entries:  # exact repeat of a live key: LRU reorder
                    key, max_len = list(rng.choice(list(cache._entries))), None
                want = oracle_match_len(cache, key, max_len, stored)
                match = cache.match(key, max_len=max_len)
                assert (match.length if match else 0) == want
                if match:
                    assert_match_is_prefix_of(match, key)
            elif op == "probe":
                want = oracle_match_len(cache, key, max_len, stored)
                assert cache.probe(key, max_len=max_len) == want
            elif op == "drop":
                stale = key[:2]
                doomed = [live for live in cache._entries if set(stale) & set(live)]
                assert drop_entries_mentioning(cache, stale) == len(doomed)
                assert not any(live in cache for live in doomed)
            else:
                cache.clear()
                assert len(cache) == 0 and cache._pool is None
            stored &= indexed_prefixes(cache)  # a prefix no live key indexes is gone
            newest = {s: k for s, k in newest.items() if k in cache._entries}
            assert stored_prefixes(cache) == stored
            assert {s: e.key for s, e in cache._sessions.items()} == newest
            check_index(cache)
        drop_entries_mentioning(cache, range(6))  # evict everything that is left
        check_index(cache)
        assert len(cache) == 0 and not cache._root.children and not cache._sessions

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_strict_prefix_keys_in_both_insertion_orders(self, order):
        keys = [[1, 2, 3], [1, 2, 3, 4, 5]]
        cache = PrefixKVCache(min_prefix_len=2)
        for index in order:
            assert cache.insert(keys[index], prefix_kvs(keys[index]), session=own(keys[index]))
            check_index(cache)
        assert keys[0] in cache and keys[1] in cache
        assert cache.match(keys[0]).length == 3
        assert cache.match(keys[1]).length == 5
        assert cache.match([1, 2, 3, 4, 9]).length == 4  # ends inside the longer key's edge
        assert cache.probe([1, 2, 9]) == 2

    @pytest.mark.parametrize("max_len", [0, -1, -3])
    def test_non_positive_max_len_is_a_miss(self, max_len):
        cache = PrefixKVCache(min_prefix_len=1)
        cache.insert([1, 2, 3, 4], prefix_kvs([1, 2, 3, 4]), session=own([1, 2, 3, 4]))
        assert cache.match([1, 2, 3, 4], max_len=max_len) is None
        assert cache.probe([1, 2, 3, 4], max_len=max_len) == 0

    def test_columns_cut_one_copy_from_a_padded_row(self):
        """``columns=`` stores exactly the listed column ranges of a wider live buffer."""
        key = [1, 2, 3, 4]
        columns = (slice(1, 3), slice(5, None))  # prefix region | pads | suffix region
        live = np.full((1, 2, 1, 7, 2), -1.0, dtype=np.float32)
        live[:, :, :, [1, 2, 5, 6]] = prefix_kvs(key)
        cache = PrefixKVCache(min_prefix_len=2)
        assert cache.insert(key, live, columns=columns, session=own(key))
        live[:] = -2.0  # the decode cache moves on; the stored copy is private
        assert_match_is_prefix_of(cache.match(key), key)
        check_index(cache)
        with pytest.raises(ValueError):
            cache.insert([1, 2, 3, 4, 5], live, columns=columns)


class TestMalformedColumns:
    """``columns`` that would file K/V under the wrong positions raise, storing nothing."""

    KEY = [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "columns",
        [
            (slice(4, 6), slice(0, 2)),  # out of order
            (slice(0, 3), slice(2, 3)),  # overlapping
            (slice(0, 8, 2),),  # strided
            (slice(6, 10),),  # past the row
            (slice(-4, None),),  # negative: outside the row
            (slice(3, 1), slice(2, 8)),  # a reversed range
        ],
    )
    def test_rejected(self, columns):
        live = np.zeros((1, 2, 1, 8, 2), dtype=np.float32)
        cache = PrefixKVCache(min_prefix_len=2)
        with pytest.raises(ValueError):
            cache.insert(self.KEY, live, columns=columns)
        assert len(cache) == 0 and cache.stats.stored_bytes == 0
        check_index(cache)

    def test_unit_step_empty_and_adjacent_ranges_accepted(self):
        live = np.zeros((1, 2, 1, 8, 2), dtype=np.float32)
        live[:, :, :, 2:6] = prefix_kvs(self.KEY)
        cache = PrefixKVCache(min_prefix_len=2)
        columns = (slice(2, 2), slice(2, 4, 1), slice(4, 6))
        assert cache.insert(self.KEY, live, columns=columns, session=own(self.KEY))
        assert_match_is_prefix_of(cache.match(self.KEY), self.KEY)


class TestSessionOccupancy:
    """Prompts store each distinct radix column once, in the pool, and give it all back."""

    HEAD = [1, 30, 31, 32, 33]  # template head
    TAIL = [90, 91, 92]  # the template's fixed tail
    # 32 KB per column: Python objects, the free stack and a pool write's fixed
    # scratch (numpy's ~4 KB fancy-assignment buffer) are noise beside it.
    HEAD_DIM = 4096

    def turn(self, t):
        return self.HEAD + list(range(40, 40 + t)) + self.TAIL

    def column_bytes(self):
        return prefix_kvs([1], head_dim=self.HEAD_DIM).nbytes

    def test_turns_store_distinct_columns_and_evict_to_zero(self):
        """Turns kept side by side (each its own session): shared columns once, none on the heap."""
        turns = 6
        cache = PrefixKVCache(max_entries=turns, min_prefix_len=2)
        first = None
        for t in range(1, turns + 1):
            key = self.turn(t)
            kv = prefix_kvs(key, head_dim=self.HEAD_DIM)
            before = cache.stats.stored_bytes
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert cache.insert(key, kv, session=own(key))
                allocated = tracemalloc.get_traced_memory()[1] - held
            finally:
                if not tracing:
                    tracemalloc.stop()
            # New columns: this turn's history item and the tail.  The previous
            # turn's leaf splits before the tail by slicing its slot ids: the
            # columns go to the pool, none is cut from the heap.
            new_columns = len(key) if t == 1 else 1 + len(self.TAIL)
            assert cache.stats.stored_bytes - before == new_columns * self.column_bytes()
            assert allocated < self.column_bytes()
            check_index(cache)
            distinct = {live[: i + 1] for live in cache._entries for i in range(len(live))}
            assert cache.stats.stored_bytes == len(distinct) * self.column_bytes()
            match = cache.match(key + [7], max_len=len(key))
            assert match.length == len(key)
            assert_match_is_prefix_of(match, key)
            first = first or match
        for entry in list(cache._entries.values()):  # evict every entry, oldest first
            with cache._lock:
                cache._drop(entry)
            check_index(cache)
        assert cache.stats.stored_bytes == 0 and not cache._root.children
        # A match handed out before the splits and evictions owns its copy.
        assert_match_is_prefix_of(first, self.turn(1))

    def test_one_session_keeps_only_its_newest_turn(self):
        """Each turn replaces the last: the dead tail's slots are poisoned and reused."""
        turns = 6
        cache = PrefixKVCache(max_entries=turns, min_prefix_len=2)
        for t in range(1, turns + 1):
            key = self.turn(t)
            tail = None
            if t > 1:  # the previous turn's leaf: its last history item and the tail
                tail = cache._root.children[1].slots[-1 - len(self.TAIL) :].copy()
            assert cache.insert(key, prefix_kvs(key, head_dim=self.HEAD_DIM), session="user")
            check_index(cache)
            assert len(cache) == 1 and key in cache and self.turn(t - 1) not in cache
            assert cache.stats.superseded == t - 1 and cache.stats.evictions == 0
            assert cache.stats.stored_bytes == len(key) * self.column_bytes()
            if tail is not None:  # the dead tail went back to the free stack, poisoned
                assert np.isnan(cache._pool.columns[tail[1:]]).all()
            assert_match_is_prefix_of(cache.match(key), key)
        # The pool never holds more than one turn plus the next turn's new columns.
        assert cache._pool.touched <= len(self.turn(turns)) + len(self.TAIL)


class TestKeylessOccupancy:
    """Unique keyless prompts cost their shared columns' K/V, however many arrive."""

    HEAD = [1, 30, 31, 32, 33]  # template head
    HEAD_DIM = 64

    def prompt(self, user):
        # A distinct first history token per user: only the head is ever shared.
        return self.HEAD + [100 + user, 50, 51, 90]

    def test_stored_bytes_are_the_shared_head_and_do_not_grow(self):
        cache = PrefixKVCache(max_entries=8, min_prefix_len=2)
        head_bytes = len(self.HEAD) * prefix_kvs([1], head_dim=self.HEAD_DIM).nbytes
        for user in range(40):
            key = self.prompt(user)
            assert cache.insert(key, prefix_kvs(key, head_dim=self.HEAD_DIM))
            assert key not in cache  # its own tail is indexed, not stored
            assert cache.stats.stored_bytes == (head_bytes if user else 0)
            check_index(cache)
        assert len(cache) == 8 and cache.stats.evictions == 40 - 8
        assert stored_prefixes(cache) == {tuple(self.HEAD[:i]) for i in range(1, 6)}
        match = cache.match(self.prompt(99))
        assert match.length == len(self.HEAD)
        assert_match_is_prefix_of(match, self.prompt(99))


class TestScopedInvalidation:
    """Dropping one entry out of a shared branch leaves the rest of the index intact."""

    HEAD = [1, 30, 31, 32]
    A = HEAD + [40, 41]
    B = A + [42, 43]  # A is a strict prefix of B; 43 occurs only in B's tail
    C = HEAD + [50, 51, 52]  # shares only the template head
    D = [2, 60, 61, 62, 63]  # unrelated

    def test_drops_exactly_the_entry_mentioning_the_token(self):
        cache = PrefixKVCache(min_prefix_len=2)
        for key in (self.A, self.B, self.C, self.D):
            cache.insert(key, prefix_kvs(key), session=own(key))
        assert drop_entries_mentioning(cache, [43]) == 1
        check_index(cache)
        assert self.B not in cache and len(cache) == 3
        for key in (self.A, self.C, self.D):
            match = cache.match(key)
            assert match.length == len(key)
            assert_match_is_prefix_of(match, key)
        assert cache.match(self.B).length == len(self.A)  # only the shared part survives
        head = cache._root.children[1]
        assert head.edge == tuple(self.HEAD) and head.donor.key in cache._entries
        leaf = head.children[40]
        assert leaf.entry.key == tuple(self.A) and not leaf.children  # A's node is a leaf again


def run_threads(*targets):
    """Run ``targets`` on their own threads, switching often; re-raise what they raised."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as error:  # surfaced by the main thread below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors


def checked_match(cache, key):
    """Match ``key`` and check every matched column against what was inserted for it."""
    match = cache.match(key, max_len=len(key) - 1)
    if match is not None:
        assert 2 <= match.length < len(key)
        assert_match_is_prefix_of(match, key)
    assert cache.probe(key) <= len(key)


class TestThreadStress:
    def test_interleaved_insert_match_invalidate(self):
        """Two threads hammer one small cache; every match is checked column by column."""
        cache = PrefixKVCache(max_entries=6, min_prefix_len=2)
        dropped = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(1500):
                key = [1, 2] + [int(t) for t in rng.integers(3, 6, size=rng.integers(0, 5))]
                roll = rng.random()
                if roll < 0.45:
                    session = f"user:{rng.integers(3)}" if roll < 0.25 else None
                    cache.insert(key, prefix_kvs(key), session=session)
                elif roll < 0.9:
                    checked_match(cache, key)
                else:
                    dropped.append(drop_entries_mentioning(cache, [int(rng.integers(3, 6))]))

        run_threads(lambda: worker(0), lambda: worker(1))
        check_index(cache)
        stats = cache.stats
        assert stats.inserts - stats.evictions - stats.superseded - sum(dropped) == len(cache)

    def test_supersede_on_one_thread_while_another_matches(self):
        """Sessions grow and replace their turns on one thread; every match reads its K/V.

        Columns are wide enough that a match's copy releases the GIL, so a
        copy made outside the lock would race the writer's frees.
        """
        cache = PrefixKVCache(max_entries=4, min_prefix_len=2)
        head_dim = 1024

        wrote, read = threading.Event(), threading.Event()  # each side's quota is done

        def keep_going(count, quota, mine, theirs):
            """Run ``quota`` times, then on for as long as the other side runs."""
            if count == quota:
                mine.set()
            return count < quota or not theirs.is_set()

        def writer():
            rng = np.random.default_rng(0)
            turns = {}
            try:
                count = 0
                while keep_going(count, 1500, wrote, read):
                    session = int(rng.integers(6))  # more sessions than entries: evictions too
                    base = turns.get(session, [1, 2])
                    if len(base) > 9 or rng.random() < 0.2:  # a new user takes the key over
                        base = [1, 2]
                    key = turns[session] = base + [int(t) for t in rng.integers(3, 6, size=2)]
                    cache.insert(key, prefix_kvs(key, head_dim=head_dim), session=session)
                    count += 1
            finally:
                wrote.set()

        def reader():
            rng = np.random.default_rng(1)
            try:
                count = 0
                while keep_going(count, 2000, read, wrote):
                    checked_match(cache, [1, 2] + [int(t) for t in rng.integers(3, 6, size=8)])
                    count += 1
            finally:
                read.set()

        run_threads(writer, reader)
        check_index(cache)
        assert cache.stats.superseded > 100 and cache.stats.evictions > 100


class TestPrefixKVCacheUnit:
    def test_exact_and_partial_match(self):
        cache = PrefixKVCache(min_prefix_len=2)
        prompt = [1, 5, 6, 7, 8]
        cache.insert(prompt, fake_kvs(5), session=own(prompt))
        exact = cache.match(prompt)
        assert exact.length == 5
        assert matched_kv(exact).shape == (2, 2, 2, 5, 4)
        # A diverging prompt reuses the shared prefix via the same entry.
        partial = cache.match([1, 5, 6, 9, 9, 9])
        assert partial.length == 3
        np.testing.assert_array_equal(matched_kv(partial), matched_kv(exact)[:, :, :, :3])

    def test_max_len_caps_match(self):
        cache = PrefixKVCache(min_prefix_len=2)
        prompt = [1, 5, 6, 7, 8]
        cache.insert(prompt, fake_kvs(5), session=own(prompt))
        assert cache.match(prompt, max_len=len(prompt) - 1).length == 4

    def test_short_matches_are_misses(self):
        cache = PrefixKVCache(min_prefix_len=4)
        cache.insert([1, 2, 3, 4, 5], fake_kvs(5), session=own([1, 2, 3, 4, 5]))
        assert cache.match([1, 2, 3, 9, 9, 9]) is None  # depth 3 < 4
        assert cache.match([1, 2, 3, 4, 9]) is not None
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1

    def test_insert_rejects_short_and_duplicate(self):
        cache = PrefixKVCache(min_prefix_len=4)
        assert not cache.insert([1, 2], fake_kvs(2), session=own([1, 2]))
        assert cache.insert([1, 2, 3, 4], fake_kvs(4), session=own([1, 2, 3, 4]))
        assert not cache.insert([1, 2, 3, 4], fake_kvs(4), session=own([1, 2, 3, 4]))
        assert len(cache) == 1
        assert [1, 2, 3, 4] in cache
        assert [1, 2, 3] not in cache

    def test_insert_copies_and_freezes(self):
        cache = PrefixKVCache(min_prefix_len=2)
        kvs = fake_kvs(3)
        cache.insert([1, 2, 3], kvs, session=own([1, 2, 3]))
        kvs[:] = -1.0  # caller mutates its live buffer afterwards
        match = cache.match([1, 2, 3])
        np.testing.assert_array_equal(matched_kv(match), fake_kvs(3))

    def test_length_mismatch_rejected(self):
        cache = PrefixKVCache(min_prefix_len=2)
        with pytest.raises(ValueError):
            cache.insert([1, 2, 3], fake_kvs(4))

    def test_lru_evicts_exactly_one_per_overflow(self):
        cache = PrefixKVCache(max_entries=2, min_prefix_len=2)
        cache.insert([1, 2, 3], fake_kvs(3), session=own([1, 2, 3]))
        cache.insert([4, 5, 6], fake_kvs(3), session=own([4, 5, 6]))
        cache.match([1, 2, 3])  # touch: [4, 5, 6] becomes least-recent
        cache.insert([7, 8, 9], fake_kvs(3), session=own([7, 8, 9]))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.match([4, 5, 6]) is None  # evicted and un-indexed
        assert cache.match([1, 2, 3]) is not None
        assert cache.match([7, 8, 9]) is not None
        # Capacity holds at max_entries: each further overflow drops one, in LRU order.
        for evicted, key in enumerate(([10, 11, 12], [13, 14, 15]), start=2):
            oldest = next(iter(cache._entries))
            cache.insert(key, fake_kvs(3), session=own(key))
            assert len(cache) == 2 and cache.stats.evictions == evicted
            assert list(oldest) not in cache and key in cache
        assert [7, 8, 9] not in cache and [1, 2, 3] not in cache

    def test_clear(self):
        cache = PrefixKVCache(min_prefix_len=2)
        cache.insert([1, 2, 3], fake_kvs(3), session=own([1, 2, 3]))
        cache.clear()
        assert len(cache) == 0
        assert cache.match([1, 2, 3]) is None
        assert cache._pool is None and not cache._sessions  # the pool's mapping is released
        check_index(cache)

    def test_freed_slots_read_nan(self):
        """A dropped node's slots are poisoned before reuse: a read after free shows."""
        cache = PrefixKVCache(min_prefix_len=2)
        cache.insert([1, 2, 3], fake_kvs(3), session="user")
        freed = cache._root.children[1].slots.copy()
        assert not np.isnan(cache._pool.columns[freed]).any()
        assert drop_entries_mentioning(cache, [3]) == 1
        assert np.isnan(cache._pool.columns[freed]).all()
        assert cache._pool.num_free == len(cache._pool.columns)
        assert cache.stats.stored_bytes == 0
        cache.insert([4, 5], fake_kvs(2), session="user")  # freed slots are reused first
        assert set(cache._root.children[4].slots) < set(freed)
        check_index(cache)

    def test_pool_grows_and_keeps_its_columns(self, monkeypatch):
        """Past its reservation the pool doubles, copying what is stored; matches still exact."""
        monkeypatch.setattr("repro.llm.prefix_cache._SLOTS_PER_ENTRY", 2)
        cache = PrefixKVCache(max_entries=3, min_prefix_len=2)
        keys = [[1, 2, 3, 4, 5], [1, 2, 6, 7, 8, 9], [10, 11, 12, 13, 14, 15, 16]]
        for key in keys:
            cache.insert(key, prefix_kvs(key), session=own(key))
            check_index(cache)
        assert len(cache._pool.columns) == 24  # 6 slots, doubled twice for 16 columns
        for key in keys:
            assert_match_is_prefix_of(cache.match(key), key)

    def test_columns_of_another_shape_are_refused(self):
        cache = PrefixKVCache(min_prefix_len=2)
        cache.insert([1, 2, 3], fake_kvs(3), session="user")
        with pytest.raises(ValueError):
            cache.insert([4, 5, 6], fake_kvs(3, heads=3), session="user")
        assert [1, 2, 3] in cache
        check_index(cache)

    def test_stats_token_hit_rate(self):
        cache = PrefixKVCache(min_prefix_len=2)
        cache.insert([1, 2, 3, 4], fake_kvs(4), session=own([1, 2, 3, 4]))
        cache.match([1, 2, 3, 4, 5, 6])  # 4 of 6 tokens reused
        assert cache.stats.prompt_tokens == 6
        assert cache.stats.reused_tokens == 4
        assert cache.stats.token_hit_rate == pytest.approx(4 / 6)
        assert cache.stats.hits == cache.stats.lookups == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PrefixKVCache(max_entries=0)
        with pytest.raises(ValueError):
            PrefixKVCache(min_prefix_len=0)


def make_model(vocab_size=64):
    model = TinyLlama(
        LMConfig(
            vocab_size=vocab_size,
            dim=32,
            num_layers=2,
            num_heads=4,
            ffn_hidden=64,
            max_seq_len=128,
        )
    )
    model.eval()
    return model


def make_trie():
    sequences = {}
    item = 0
    for a in range(4, 10):
        for b in range(10, 16):
            sequences[item] = (a, b, (a + b) % 6 + 16, (a * b) % 6 + 22)
            item += 1
    return IndexTrie(sequences)


TEMPLATE_HEAD = [1, 33, 34, 35, 36, 37, 38, 39]


def session_prompts(rng, users=6, turns=2):
    """Template-headed prompts where each user's later turns grow the first."""
    prompts = []
    for _ in range(users):
        base = TEMPLATE_HEAD + [int(t) for t in rng.integers(40, 60, size=4)]
        prompts.append(base)
        for _ in range(turns - 1):
            base = base + [int(t) for t in rng.integers(40, 60, size=2)]
            prompts.append(base)
    return prompts


class TestPrefixCacheDecodeParity:
    """Cached-prefix decoding must return byte-identical rankings."""

    def test_warm_cache_matches_single_reference(self):
        model, trie = make_model(), make_trie()
        rng = np.random.default_rng(7)
        prompts = session_prompts(rng)
        reference = [
            ranked_item_ids(beam_search_items_single(model, p, trie, beam_size=8), 5)
            for p in prompts
        ]
        cache = PrefixKVCache()
        for round_index in range(3):  # cold, then increasingly warm
            batched = decode_prompts(
                model, prompts, trie, beam_size=8, prefix_cache=cache
            )
            assert [ranked_item_ids(h, 5) for h in batched] == reference, (
                f"rankings diverged on round {round_index}"
            )
        assert cache.stats.hits > 0
        assert cache.stats.reused_tokens > 0

    def test_scores_match_uncached_batched(self):
        model, trie = make_model(), make_trie()
        rng = np.random.default_rng(11)
        prompts = session_prompts(rng, users=3)
        plain = decode_prompts(model, prompts, trie, beam_size=6)
        cache = PrefixKVCache()
        decode_prompts(model, prompts, trie, beam_size=6, prefix_cache=cache)
        warm = decode_prompts(
            model, prompts, trie, beam_size=6, prefix_cache=cache
        )
        for plain_row, warm_row in zip(plain, warm):
            assert [h.token_ids for h in plain_row] == [h.token_ids for h in warm_row]
            for plain_hyp, warm_hyp in zip(plain_row, warm_row):
                assert plain_hyp.score == pytest.approx(warm_hyp.score, abs=1e-4)

    def test_session_growth_reuses_previous_turn(self):
        """A session's first turn is stored whole, so its next turn hits it at once."""
        model, trie = make_model(), make_trie()
        cache = PrefixKVCache()
        first = TEMPLATE_HEAD + [40, 41, 42]
        decode_prompts(model, [first], trie, beam_size=6, prefix_cache=cache, sessions=["user"])
        assert first in cache
        grown = first + [43, 44]
        reused_before = cache.stats.reused_tokens
        batched = decode_prompts(
            model, [grown], trie, beam_size=6, prefix_cache=cache, sessions=["user"]
        )
        assert cache.stats.reused_tokens - reused_before == len(first)
        assert grown in cache and first not in cache and len(cache) == 1  # superseded
        reference = beam_search_items_single(model, grown, trie, beam_size=6)
        assert ranked_item_ids(batched[0], 5) == ranked_item_ids(reference, 5)

    def test_mixed_hit_miss_batch(self):
        """Rows with cached prefixes co-decode with never-seen rows."""
        model, trie = make_model(), make_trie()
        rng = np.random.default_rng(3)
        known = session_prompts(rng, users=2, turns=1)
        cache = PrefixKVCache()
        decode_prompts(model, known, trie, beam_size=8, prefix_cache=cache)
        fresh = [[1, 50, 51, 52, 53, 54, 55], [1, 56, 57]]  # no shared head
        mixed = [known[0], fresh[0], known[1], fresh[1]]
        batched = decode_prompts(
            model, mixed, trie, beam_size=8, prefix_cache=cache
        )
        for prompt, hypotheses in zip(mixed, batched):
            reference = beam_search_items_single(model, prompt, trie, beam_size=8)
            assert ranked_item_ids(hypotheses, 5) == ranked_item_ids(reference, 5)

    def test_whole_prompt_repeat_caps_at_one_suffix_token(self):
        """An exact repeat still forwards >= 1 token (the logits source)."""
        model, trie = make_model(), make_trie()
        cache = PrefixKVCache()
        prompt = TEMPLATE_HEAD + [44, 45]
        decode_prompts(model, [prompt], trie, beam_size=6, prefix_cache=cache, sessions=["user"])
        repeat = decode_prompts(
            model, [prompt], trie, beam_size=6, prefix_cache=cache, sessions=["user"]
        )
        assert cache.stats.reused_tokens == len(prompt) - 1
        reference = beam_search_items_single(model, prompt, trie, beam_size=6)
        assert ranked_item_ids(repeat[0], 5) == ranked_item_ids(reference, 5)

    def test_keyless_repeat_is_stored_on_its_second_sighting(self):
        """Missed, then stored, then fully hit: a keyless prompt's K/V waits for a repeat."""
        model, trie = make_model(), make_trie()
        cache = PrefixKVCache()
        prompt = TEMPLATE_HEAD + [44, 45]
        reference = ranked_item_ids(beam_search_items_single(model, prompt, trie, beam_size=6), 5)
        reused, held = [], []
        for _ in range(3):
            before = cache.stats.reused_tokens
            got = decode_prompts(model, [prompt], trie, beam_size=6, prefix_cache=cache)
            assert ranked_item_ids(got[0], 5) == reference
            reused.append(cache.stats.reused_tokens - before)
            held.append((prompt in cache, cache.stats.stored_bytes > 0))
            check_index(cache)
        assert reused == [0, 0, len(prompt) - 1]
        assert held == [(False, False), (True, True), (True, True)]
        assert len(cache) == 1

    def test_mixed_session_and_keyless_cohorts_rank_like_the_cacheless_decode(self):
        """Rows that store whole, rows that store on a repeat, and their hits: same rankings."""
        model, trie = make_model(), make_trie()
        prompts = session_prompts(np.random.default_rng(13), users=4, turns=3)
        sessions = [f"user:{u}" if u % 2 == 0 else None for u in range(4) for _ in range(3)]
        plain = decode_prompts(model, prompts, trie, beam_size=8)
        cache = PrefixKVCache()
        for turn in range(3):  # each user's turn t, then the whole pool twice
            rows = [row for row in range(len(prompts)) if row % 3 == turn]
            got = decode_prompts(
                model, [prompts[row] for row in rows], trie, beam_size=8,
                prefix_cache=cache, sessions=[sessions[row] for row in rows],
            )
            for row, hypotheses in zip(rows, got):
                assert [h.token_ids for h in hypotheses] == [h.token_ids for h in plain[row]]
        for _ in range(2):
            warm = decode_prompts(
                model, prompts, trie, beam_size=8, prefix_cache=cache, sessions=sessions
            )
            for plain_row, warm_row in zip(plain, warm):
                assert [h.token_ids for h in plain_row] == [h.token_ids for h in warm_row]
                assert ranked_item_ids(plain_row, 8) == ranked_item_ids(warm_row, 8)
                for plain_hyp, warm_hyp in zip(plain_row, warm_row):
                    assert plain_hyp.score == pytest.approx(warm_hyp.score, abs=1e-4)
            check_index(cache)
        # A session keeps its newest turn; keyless turns stay, stored on their repeats.
        newest = {session: prompt for session, prompt in zip(sessions, prompts)}
        for session, prompt in zip(sessions, prompts):
            assert (prompt in cache) == (session is None or newest[session] is prompt)
        assert cache.stats.reused_tokens > 0 and cache.stats.superseded > 0


    def test_supersede_and_evict_churn_ranks_like_the_cacheless_decode(self):
        """Sessions grow, refresh and change hands in a cache too small for them: same rankings."""
        model, trie = make_model(), make_trie()
        rng = np.random.default_rng(17)
        cache = PrefixKVCache(max_entries=3)
        histories = {}
        for _ in range(8):
            sessions = [int(s) for s in rng.choice(6, size=4, replace=False)]
            for session in sessions:
                history, roll = histories.get(session), rng.random()
                if history is None or roll < 0.2:  # a new user takes the session over
                    history = [int(t) for t in rng.integers(40, 60, size=3)]
                elif roll < 0.7:  # the user's history grows; otherwise a refresh
                    history = history + [int(rng.integers(40, 60))]
                histories[session] = history
            prompts = [TEMPLATE_HEAD + histories[s] + [61, 62] for s in sessions]
            got = decode_prompts(
                model, prompts, trie, beam_size=8, prefix_cache=cache,
                sessions=[f"session:{s}" for s in sessions],
            )
            want = decode_prompts(model, prompts, trie, beam_size=8)
            for got_row, want_row in zip(got, want):
                assert [h.token_ids for h in got_row] == [h.token_ids for h in want_row]
                for got_hyp, want_hyp in zip(got_row, want_row):
                    assert got_hyp.score == pytest.approx(want_hyp.score, abs=1e-4)
            check_index(cache)
        stats = cache.stats
        assert stats.superseded > 0 and stats.evictions > 0 and stats.reused_tokens > 0

    def test_warm_cache_after_scoped_invalidation_equals_cacheless(self):
        """Un-indexing some stored prompts leaves the rest decoding right."""
        model, trie = make_model(), make_trie()
        prompts = session_prompts(np.random.default_rng(5), users=5, turns=3)
        plain = decode_prompts(model, prompts, trie, beam_size=8)
        cache = PrefixKVCache()
        decode_prompts(model, prompts, trie, beam_size=8, prefix_cache=cache)
        stale = [prompts[2][-1], prompts[7][-2]]  # history tokens of a few stored prompts
        dropped = drop_entries_mentioning(cache, stale)
        assert 0 < dropped < len(set(map(tuple, prompts)))
        assert not any(set(stale) & set(key) for key in cache._entries)
        check_index(cache)
        warm = decode_prompts(model, prompts, trie, beam_size=8, prefix_cache=cache)
        assert cache.stats.reused_tokens > 0
        for plain_row, warm_row in zip(plain, warm):
            assert [h.token_ids for h in plain_row] == [h.token_ids for h in warm_row]
            for plain_hyp, warm_hyp in zip(plain_row, warm_row):
                assert plain_hyp.score == pytest.approx(warm_hyp.score, abs=1e-4)


class TestPrefixCacheOnLCRec:
    """End-to-end on the built tiny model: serving templates really collide."""

    def test_service_prefix_cache_parity(self, tiny_lcrec, tiny_dataset):
        histories = tiny_dataset.split.test_histories[:6]
        service = RecommendationService(LCRecEngine(tiny_lcrec))
        assert service.prefix_cache is not None  # on by default
        cold = service.recommend_many(histories, top_k=5)
        warm = service.recommend_many(histories, top_k=5)
        assert cold == warm
        for history, ranked in zip(histories, cold):
            assert ranked == tiny_lcrec.recommend(list(history), top_k=5)
        assert service.prefix_cache.stats.hits > 0

    def test_template_heads_hit_across_users(self, tiny_lcrec, tiny_dataset):
        """The head's second sighting (the second user) stores it; the third user hits it."""
        service = RecommendationService(LCRecEngine(tiny_lcrec))
        first, second, third = tiny_dataset.split.test_histories[:3]
        service.recommend_many([first], top_k=3)
        service.recommend_many([second], top_k=3)  # different user, same template
        before = service.prefix_cache.stats.reused_tokens
        service.recommend_many([third], top_k=3)
        assert service.prefix_cache.stats.reused_tokens > before

    def test_session_growth_hits_previous_turn_at_once(self, tiny_lcrec, tiny_dataset):
        """A keyed submit stores its prompt whole: the session's next turn hits all it shares."""
        service = RecommendationService(LCRecEngine(tiny_lcrec))
        history = list(tiny_dataset.split.test_histories[0])
        turns = [history, history + [tiny_dataset.split.test_targets[0]]]
        prompts = [service.engine.encode_history(turn) for turn in turns]
        stats = service.prefix_cache.stats
        for turn in turns:
            before = stats.reused_tokens
            handle = service.submit(turn, top_k=3, session_key="user:0")
            service.flush()
            assert handle.result() == tiny_lcrec.recommend(turn, top_k=3)
        assert stats.reused_tokens - before == len(commonprefix(prompts))
        # The newest turn replaced the earlier one: only it is stored.
        assert prompts[1] in service.prefix_cache and prompts[0] not in service.prefix_cache
        assert stats.superseded == 1 and len(service.prefix_cache) == 1

    def test_disabled_cache(self, tiny_lcrec, tiny_dataset):
        service = RecommendationService(LCRecEngine(tiny_lcrec, prefix_cache=None))
        assert service.prefix_cache is None
        histories = tiny_dataset.split.test_histories[:3]
        for history, ranked in zip(histories, service.recommend_many(histories, top_k=4)):
            assert ranked == tiny_lcrec.recommend(list(history), top_k=4)
