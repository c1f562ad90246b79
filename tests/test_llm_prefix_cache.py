"""Cross-request prefix KV cache: radix-index semantics, eviction, decode parity."""

import sys
import threading
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

from helpers import decode_prompts


def fake_kvs(length, layers=2, heads=2, head_dim=4, fill=1.0):
    """Per-layer (keys, values) pairs shaped like a 1-row prompt cache."""
    out = []
    for layer in range(layers):
        keys = np.full((1, heads, length, head_dim), fill + layer, dtype=np.float32)
        values = keys + 100.0
        out.append((keys, values))
    return out


def prefix_kvs(key):
    """One-layer K/V whose column ``j`` encodes ``key[: j + 1]`` and nothing else.

    Any donor covering a prefix holds the same columns for it, so a match
    can be checked column by column against the *query* alone.
    """
    codes, code = [], 7
    for token in key:
        code = (code * 31 + token + 1) % 65521  # exact in float32
        codes.append(code)
    keys = np.array(codes, dtype=np.float32).reshape(1, 1, len(key), 1).repeat(2, axis=3)
    return [(keys, keys + 0.5)]


def assert_match_is_prefix_of(match, query):
    """The K/V a match hands out is exactly what was inserted for ``query[:length]``."""
    (keys, values), (want_keys, want_values) = match.layer_kvs[0], prefix_kvs(query)[0]
    np.testing.assert_array_equal(keys, want_keys[:, :, : match.length])
    np.testing.assert_array_equal(values, want_values[:, :, : match.length])


def oracle_match_len(cache, query, max_len=None):
    """Brute force: longest common prefix with any live key, capped, floored."""
    limit = len(query) if max_len is None else max(0, min(max_len, len(query)))
    capped = tuple(query[:limit])
    best = max((len(commonprefix([key, capped])) for key in cache._entries), default=0)
    return best if best >= cache.min_prefix_len else 0


def drop_entries_mentioning(cache, tokens):
    """Un-index every entry whose key contains any of ``tokens``; returns how many.

    Drives ``_drop`` — the one un-index path, which LRU eviction takes —
    under the cache lock, so the radix bookkeeping is checked on drops out
    of any branch, not only on whichever entry the LRU order names.
    """
    stale = set(tokens)
    with cache._lock:
        doomed = [entry for entry in cache._entries.values() if not stale.isdisjoint(entry.key)]
        for entry in doomed:
            cache._drop(entry)
    return len(doomed)


def check_index(cache):
    """Structural invariants of the radix index (see ``_Node``)."""
    live = cache._entries
    assert len(live) <= cache.max_entries
    root = cache._root
    assert root.entry is None and root.edge == ()
    nodes, ended, stack = 0, set(), [((), child) for child in root.children.values()]
    assert all(first == child.edge[0] for first, child in root.children.items())
    while stack:
        above, node = stack.pop()
        nodes += 1
        prefix = above + node.edge
        assert node.edge, "empty edge"
        assert live.get(node.donor.key) is node.donor, "donor is not a live entry"
        assert node.donor.key[: len(prefix)] == prefix, "donor does not cover the node"
        if node.entry is None:
            assert len(node.children) >= 2, "unary pass-through node left unmerged"
        else:
            assert node.entry.key == prefix and live.get(prefix) is node.entry
            ended.add(prefix)
        for first, child in node.children.items():
            assert first == child.edge[0]
            stack.append((prefix, child))
    assert ended == set(live), "index and LRU table disagree about what is stored"
    assert nodes <= 2 * len(live)  # so an empty cache is a bare root: back to baseline


class TestRadixIndexModel:
    """Random op sequences against a brute-force longest-common-prefix oracle."""

    OPS = ("insert", "match", "touch", "probe", "drop", "clear")

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
        for _ in range(50):
            (op,) = rng.choices(self.OPS, weights=(10, 4, 3, 2, 2, 0.2))
            # Three common tokens so prefixes collide constantly, three rare ones so an
            # un-index can drop one entry out of a branch instead of the whole branch.
            key = rng.choices(range(6), weights=(6, 6, 6, 1, 1, 1), k=rng.randint(0, 7))
            max_len = rng.choice([None, None, *range(-2, 9)])
            if op == "insert":
                lru_before, evictions = list(cache._entries), cache.stats.evictions
                fresh = len(key) >= min_prefix_len and tuple(key) not in cache._entries
                assert cache.insert(key, prefix_kvs(key)) == fresh
                if fresh and len(lru_before) == max_entries:  # overflow: exactly the LRU goes
                    assert cache.stats.evictions == evictions + 1
                    assert list(cache._entries) == lru_before[1:] + [tuple(key)]
                else:
                    assert cache.stats.evictions == evictions
                assert (key in cache) == (len(key) >= min_prefix_len)
            elif op in ("match", "touch"):
                if op == "touch" and cache._entries:  # exact repeat of a live key: LRU reorder
                    key, max_len = list(rng.choice(list(cache._entries))), None
                want = oracle_match_len(cache, key, max_len)
                match = cache.match(key, max_len=max_len)
                assert (match.length if match else 0) == want
                if match:
                    assert_match_is_prefix_of(match, key)
            elif op == "probe":
                assert cache.probe(key, max_len=max_len) == oracle_match_len(cache, key, max_len)
            elif op == "drop":
                stale = key[:2]
                doomed = [live for live in cache._entries if set(stale) & set(live)]
                assert drop_entries_mentioning(cache, stale) == len(doomed)
                assert not any(live in cache for live in doomed)
            else:
                cache.clear()
                assert len(cache) == 0
            check_index(cache)
        drop_entries_mentioning(cache, range(6))  # evict everything that is left
        check_index(cache)
        assert len(cache) == 0 and not cache._root.children

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_strict_prefix_keys_in_both_insertion_orders(self, order):
        keys = [[1, 2, 3], [1, 2, 3, 4, 5]]
        cache = PrefixKVCache(min_prefix_len=2)
        for index in order:
            assert cache.insert(keys[index], prefix_kvs(keys[index]))
            check_index(cache)
        assert keys[0] in cache and keys[1] in cache
        assert cache.match(keys[0]).length == 3
        assert cache.match(keys[1]).length == 5
        assert cache.match([1, 2, 3, 4, 9]).length == 4  # ends inside the longer key's edge
        assert cache.probe([1, 2, 9]) == 2

    @pytest.mark.parametrize("max_len", [0, -1, -3])
    def test_non_positive_max_len_is_a_miss(self, max_len):
        cache = PrefixKVCache(min_prefix_len=1)
        cache.insert([1, 2, 3, 4], prefix_kvs([1, 2, 3, 4]))
        assert cache.match([1, 2, 3, 4], max_len=max_len) is None
        assert cache.probe([1, 2, 3, 4], max_len=max_len) == 0

    def test_columns_cut_one_copy_from_a_padded_row(self):
        """``columns=`` stores exactly the listed column ranges of a wider live buffer."""
        key = [1, 2, 3, 4]
        ((want_keys, want_values),) = prefix_kvs(key)
        columns = (slice(1, 3), slice(5, None))  # prefix region | pads | suffix region
        live = [tuple(np.full((1, 1, 7, 2), -1.0, dtype=np.float32) for _ in range(2))]
        for array, want in zip(live[0], (want_keys, want_values)):
            array[:, :, [1, 2, 5, 6]] = want
        cache = PrefixKVCache(min_prefix_len=2)
        assert cache.insert(key, live, columns=columns)
        live[0][0][:] = -2.0  # the decode cache moves on; the stored copy is private
        match = cache.match(key)
        assert_match_is_prefix_of(match, key)
        assert not match.layer_kvs[0][0].flags.writeable
        with pytest.raises(ValueError):
            cache.insert([1, 2, 3, 4, 5], live, columns=columns)


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
            cache.insert(key, prefix_kvs(key))
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


class TestThreadStress:
    def test_interleaved_insert_match_invalidate(self):
        """Two threads hammer one small cache; every match is checked column by column."""
        cache = PrefixKVCache(max_entries=6, min_prefix_len=2)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(1500):
                    key = [1, 2] + [int(t) for t in rng.integers(3, 6, size=rng.integers(0, 5))]
                    roll = rng.random()
                    if roll < 0.45:
                        cache.insert(key, prefix_kvs(key))
                    elif roll < 0.9:
                        match = cache.match(key, max_len=len(key) - 1)
                        if match is not None:
                            assert 2 <= match.length < len(key)
                            assert_match_is_prefix_of(match, key)
                        assert cache.probe(key) <= len(key)
                    else:
                        drop_entries_mentioning(cache, [int(rng.integers(3, 6))])
            except Exception as error:  # surfaced by the main thread below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        check_index(cache)
        assert cache.stats.inserts - cache.stats.evictions == len(cache)


class TestPrefixKVCacheUnit:
    def test_exact_and_partial_match(self):
        cache = PrefixKVCache(min_prefix_len=2)
        prompt = [1, 5, 6, 7, 8]
        cache.insert(prompt, fake_kvs(5))
        exact = cache.match(prompt)
        assert exact.length == 5
        assert exact.layer_kvs[0][0].shape == (1, 2, 5, 4)
        # A diverging prompt reuses the shared prefix via the same entry.
        partial = cache.match([1, 5, 6, 9, 9, 9])
        assert partial.length == 3
        np.testing.assert_array_equal(
            partial.layer_kvs[1][1], exact.layer_kvs[1][1][:, :, :3, :]
        )

    def test_max_len_caps_match(self):
        cache = PrefixKVCache(min_prefix_len=2)
        prompt = [1, 5, 6, 7, 8]
        cache.insert(prompt, fake_kvs(5))
        assert cache.match(prompt, max_len=len(prompt) - 1).length == 4

    def test_short_matches_are_misses(self):
        cache = PrefixKVCache(min_prefix_len=4)
        cache.insert([1, 2, 3, 4, 5], fake_kvs(5))
        assert cache.match([1, 2, 3, 9, 9, 9]) is None  # depth 3 < 4
        assert cache.match([1, 2, 3, 4, 9]) is not None
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1

    def test_insert_rejects_short_and_duplicate(self):
        cache = PrefixKVCache(min_prefix_len=4)
        assert not cache.insert([1, 2], fake_kvs(2))
        assert cache.insert([1, 2, 3, 4], fake_kvs(4))
        assert not cache.insert([1, 2, 3, 4], fake_kvs(4))
        assert len(cache) == 1
        assert [1, 2, 3, 4] in cache
        assert [1, 2, 3] not in cache

    def test_insert_copies_and_freezes(self):
        cache = PrefixKVCache(min_prefix_len=2)
        kvs = fake_kvs(3)
        cache.insert([1, 2, 3], kvs)
        kvs[0][0][:] = -1.0  # caller mutates its live buffer afterwards
        match = cache.match([1, 2, 3])
        np.testing.assert_array_equal(match.layer_kvs[0][0], fake_kvs(3)[0][0])
        assert not match.layer_kvs[0][0].flags.writeable

    def test_length_mismatch_rejected(self):
        cache = PrefixKVCache(min_prefix_len=2)
        with pytest.raises(ValueError):
            cache.insert([1, 2, 3], fake_kvs(4))

    def test_lru_evicts_exactly_one_per_overflow(self):
        cache = PrefixKVCache(max_entries=2, min_prefix_len=2)
        cache.insert([1, 2, 3], fake_kvs(3))
        cache.insert([4, 5, 6], fake_kvs(3))
        cache.match([1, 2, 3])  # touch: [4, 5, 6] becomes least-recent
        cache.insert([7, 8, 9], fake_kvs(3))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.match([4, 5, 6]) is None  # evicted and un-indexed
        assert cache.match([1, 2, 3]) is not None
        assert cache.match([7, 8, 9]) is not None
        # Capacity holds at max_entries: each further overflow drops one, in LRU order.
        for evicted, key in enumerate(([10, 11, 12], [13, 14, 15]), start=2):
            oldest = next(iter(cache._entries))
            cache.insert(key, fake_kvs(3))
            assert len(cache) == 2 and cache.stats.evictions == evicted
            assert list(oldest) not in cache and key in cache
        assert [7, 8, 9] not in cache and [1, 2, 3] not in cache

    def test_clear(self):
        cache = PrefixKVCache(min_prefix_len=2)
        cache.insert([1, 2, 3], fake_kvs(3))
        cache.clear()
        assert len(cache) == 0
        assert cache.match([1, 2, 3]) is None

    def test_stats_token_hit_rate(self):
        cache = PrefixKVCache(min_prefix_len=2)
        cache.insert([1, 2, 3, 4], fake_kvs(4))
        cache.match([1, 2, 3, 4, 5, 6])  # 4 of 6 tokens reused
        assert cache.stats.prompt_tokens == 6
        assert cache.stats.reused_tokens == 4
        assert cache.stats.token_hit_rate == pytest.approx(4 / 6)
        assert cache.stats.hit_rate == 1.0

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
        model, trie = make_model(), make_trie()
        cache = PrefixKVCache()
        first = TEMPLATE_HEAD + [40, 41, 42]
        decode_prompts(model, [first], trie, beam_size=6, prefix_cache=cache)
        grown = first + [43, 44]
        reused_before = cache.stats.reused_tokens
        batched = decode_prompts(
            model, [grown], trie, beam_size=6, prefix_cache=cache
        )
        assert cache.stats.reused_tokens - reused_before == len(first)
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
        decode_prompts(model, [prompt], trie, beam_size=6, prefix_cache=cache)
        repeat = decode_prompts(
            model, [prompt], trie, beam_size=6, prefix_cache=cache
        )
        assert cache.stats.reused_tokens == len(prompt) - 1
        reference = beam_search_items_single(model, prompt, trie, beam_size=6)
        assert ranked_item_ids(repeat[0], 5) == ranked_item_ids(reference, 5)


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
        service = tiny_lcrec.service()
        assert service.prefix_cache is not None  # on by default
        cold = service.recommend_many(histories, top_k=5)
        warm = service.recommend_many(histories, top_k=5)
        assert cold == warm
        for history, ranked in zip(histories, cold):
            assert ranked == tiny_lcrec.recommend(list(history), top_k=5)
        assert service.prefix_cache.stats.hits > 0

    def test_template_heads_hit_across_users(self, tiny_lcrec, tiny_dataset):
        service = tiny_lcrec.service()
        first, second = tiny_dataset.split.test_histories[:2]
        service.recommend_many([first], top_k=3)
        before = service.prefix_cache.stats.reused_tokens
        service.recommend_many([second], top_k=3)  # different user, same template
        assert service.prefix_cache.stats.reused_tokens > before

    def test_disabled_cache(self, tiny_lcrec, tiny_dataset):
        service = tiny_lcrec.service(prefix_cache=False)
        assert service.prefix_cache is None
        histories = tiny_dataset.split.test_histories[:3]
        for history, ranked in zip(histories, service.recommend_many(histories, top_k=4)):
            assert ranked == tiny_lcrec.recommend(list(history), top_k=4)
