"""Trie-aware sparse decode: candidate head, forced fast path, workspaces.

Parity contracts pinned here:

* ``IndexTrie.allowed_token_ids`` exposes exactly the same constraint as
  the dense ``allowed_token_mask`` (each node's children, at their
  ``column`` of the level's union), with stable union identities, and
  ``with_item`` rebuilds them;
* ``pair_log_softmax`` normalises each hypothesis over its own children,
  exactly as the single-request ``constrained_log_probs`` does, whatever
  its neighbours' fan-out, and a step with no live pair raises;
* the sparse (candidate-only) decode — the only output head — returns
  rankings identical to the single-request oracles, which score the full
  vocabulary (``beam_search_items_single``, ``TIGER.recommend``), and
  scores equal to float rounding: the raw stepper and every engine
  adapter (LCRec, P5CID, TIGER) at B ∈ {1, 4, 16}, with and without the
  prefix cache;
* the forced-token fast path skips model forwards without changing any
  score (a singleton allowed set renormalises to log-probability 0.0),
  across one-shot decodes and retirement;
* the fused-QKV / gathered-head caches never serve stale weights across
  train()/eval() cycles, and a warm decode, narrowed or not, builds no
  gathered head.
"""

import numpy as np
import pytest

from repro.baselines import P5CID, P5CIDConfig, TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set
from repro.llm import (
    LMConfig,
    PrefixKVCache,
    TinyLlama,
    beam_search_items_single,
    decode_finish,
    decode_prefill,
    decode_step,
    pair_log_softmax,
    ranked_item_ids,
)
from repro.llm.generation import constrained_log_probs
from repro.quantization import IndexTrie
from repro.serving import (
    LCRecEngine,
    MicroBatcherConfig,
    P5CIDEngine,
    RecommendationService,
    TIGEREngine,
)
from repro.tensor import StepWorkspace, WeightMemo

from helpers import decode_prompts


def make_model(vocab=60, seed=7):
    model = TinyLlama(LMConfig(vocab_size=vocab, dim=16, num_layers=1,
                               num_heads=2, ffn_hidden=24, max_seq_len=64,
                               seed=seed))
    model.eval()
    return model


def make_trie():
    return IndexTrie({
        0: (10, 12, 14),
        1: (10, 12, 15),
        2: (10, 13, 14),
        3: (11, 12, 14),
        4: (11, 13, 15),
    })


def make_forced_trie():
    """Level 2 is forced: every (L0, L1) prefix has exactly one child."""
    items = {}
    for a in (10, 11):
        for b in (20, 21):
            for d in (40, 41):
                items[len(items)] = (a, b, 30 + (b - 20), d)
    return IndexTrie(items)


MIXED_PROMPTS = [[1, 2, 3], [4, 5], [1], [2, 2, 6, 7], [3, 3, 3]]


def assert_same_hypotheses(got, expected, rtol=1e-5, atol=1e-6):
    assert [h.item_id for h in got] == [h.item_id for h in expected]
    assert [h.token_ids for h in got] == [h.token_ids for h in expected]
    np.testing.assert_allclose([h.score for h in got],
                               [h.score for h in expected],
                               rtol=rtol, atol=atol)


# ----------------------------------------------------------------------
# Trie: candidate unions, masks, stable identities, snapshots
# ----------------------------------------------------------------------
class TestAllowedTokenIds:
    def test_union_and_mask_match_dense_mask(self):
        trie = make_trie()
        prefixes = [(), (10,), (11,), (10, 12), (11, 13), (9, 9)]
        for batch in ([prefixes[0]], prefixes[1:3], prefixes[3:]):
            cand = trie.allowed_token_ids(batch)
            dense = trie.allowed_token_mask(batch, vocab_size=30)
            rows, children = trie.expand(cand.nodes, np.ones(len(batch), dtype=bool))
            for row, prefix in enumerate(batch):
                np.testing.assert_array_equal(cand.union[trie.column[children[rows == row]]],
                                              np.flatnonzero(dense[row]))
                np.testing.assert_array_equal(cand.trie.child_tokens(cand.nodes[row]),
                                              np.flatnonzero(dense[row]))

    def test_mixed_levels_are_rejected(self):
        # A decode cohort steps in lockstep, so one call never spans depths.
        trie = make_trie()
        for batch in ([(), (10,)], [(10,), (10, 12)], [(10, 12), (9,), (11, 13)]):
            with pytest.raises(ValueError, match="depths"):
                trie.allowed_token_ids(batch)
            with pytest.raises(ValueError, match="depths"):
                trie.allowed_token_ids(np.array([trie.node_of(p) for p in batch]))

    def test_level_union_is_memoized_and_readonly(self):
        trie = make_trie()
        first = trie.level_union(1)
        assert trie.level_union(1) is first
        assert not first.flags.writeable
        assert set(first) == {12, 13}
        with pytest.raises(ValueError):
            trie.level_union(3)

    def test_with_item_rebuilds_derived_arrays(self):
        trie = make_trie()
        root_before = trie.allowed_token_mask([()], 30)
        union_before = trie.level_union(0)
        grown = trie.with_item(5, (20, 21, 22))
        assert (grown.num_items, trie.num_items) == (6, 5)
        assert grown.item_at((20, 21, 22)) == 5
        assert 20 in set(grown.level_union(0))
        assert grown.level_union(0) is not union_before
        assert trie.level_union(0) is union_before
        root_after = grown.allowed_token_mask([()], 30)
        assert not root_before[0, 20]
        assert root_after[0, 20]
        assert 20 in set(grown.child_tokens(0))

    def test_with_item_validates_depth_and_duplicates(self):
        trie = make_trie()
        with pytest.raises(ValueError, match="depth"):
            trie.with_item(9, (10, 12))
        with pytest.raises(ValueError, match="duplicate index sequence"):
            trie.with_item(9, (10, 12, 14))
        with pytest.raises(ValueError, match="already has"):
            trie.with_item(4, (20, 21, 22))

    def test_forcedness_helpers(self):
        trie = make_forced_trie()
        cand = trie.allowed_token_ids([(10, 20), (11, 21)])
        assert cand.is_forced()
        np.testing.assert_array_equal(cand.forced_tokens(), [30, 31])
        mixed = trie.allowed_token_ids([(9, 9), (10, 20)])  # an illegal prefix: no child
        assert not mixed.is_forced()
        # Dead rows (alive=False) may have any fan-out without breaking it.
        assert mixed.is_forced(alive=np.array([False, True]))


def ragged_pairs(rng, counts, vocab):
    """Random logits ``(len(counts), vocab)`` and ``counts[i]`` sorted legal ids per row."""
    logits = (rng.standard_normal((len(counts), vocab)) * 3).astype(np.float32)
    allowed = [np.sort(rng.choice(vocab, size=n, replace=False)) for n in counts]
    return logits, allowed


def pair_scores(logits, allowed):
    """``pair_log_softmax`` over the rows' allowed ids laid end to end, split per row."""
    counts = np.array([len(ids) for ids in allowed])
    rows = np.repeat(np.arange(len(allowed)), counts)
    flat = pair_log_softmax(logits[rows, np.concatenate(allowed)], counts)
    return np.split(flat, np.cumsum(counts)[:-1])


class TestPairLogSoftmax:
    def test_matches_full_log_softmax_when_every_column_is_legal(self):
        logits = np.random.default_rng(0).standard_normal((4, 9)).astype(np.float32)
        shifted = logits - logits.max(axis=1, keepdims=True)
        dense = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        got = pair_scores(logits, [np.arange(9)] * 4)
        np.testing.assert_allclose(np.stack(got), dense, rtol=1e-6)

    def test_renormalises_over_the_legal_set(self):
        logits = np.array([[0.5, 1.0, -2.0, 3.0]], dtype=np.float32)
        (out,) = pair_scores(logits, [np.array([0, 2])])
        assert np.isfinite(out).all() and out.shape == (2,)
        np.testing.assert_allclose(np.exp(out).sum(), 1.0, rtol=1e-6)

    def test_childless_hypothesis_has_no_segment(self):
        # A hypothesis that expands nothing (count 0) scores no pair and
        # leaves its neighbours' segments where they are.
        logits = np.arange(6, dtype=np.float32).reshape(2, 3)
        counts = np.array([0, 3])
        out = pair_log_softmax(logits[1], counts)
        assert out.shape == (3,) and np.isfinite(out).all()
        np.testing.assert_array_equal(out, constrained_log_probs(logits[1], np.arange(3)))

    def test_equals_the_single_request_rule_on_ragged_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = rng.integers(1, 65, size=rng.integers(1, 12))
            logits, allowed = ragged_pairs(rng, counts, vocab=96)
            for row, (ids, got) in enumerate(zip(allowed, pair_scores(logits, allowed))):
                want = constrained_log_probs(logits[row], ids)
                assert got.dtype == want.dtype
                if len(ids) < 8:
                    np.testing.assert_array_equal(got, want)
                else:  # past numpy's sequential-sum length the orders may differ
                    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_scores_do_not_depend_on_a_neighbours_fan_out(self):
        rng = np.random.default_rng(5)
        for own in (1, 3, 7, 8, 40):
            logits, (mine,) = ragged_pairs(rng, [own], vocab=256)
            alone = pair_scores(logits, [mine])[0]
            for fan_out in (1, 200):
                theirs = np.sort(rng.choice(256, size=fan_out, replace=False))
                other = rng.standard_normal((1, 256)).astype(np.float32)
                after = pair_scores(np.vstack([logits, other]), [mine, theirs])[0]
                before = pair_scores(np.vstack([other, logits]), [theirs, mine])[1]
                np.testing.assert_array_equal(after, alone)
                np.testing.assert_array_equal(before, alone)

    def test_a_step_with_no_live_pair_raises(self):
        model, trie = make_model(), make_trie()
        state = decode_prefill(model, MIXED_PROMPTS[:2], trie, beam_size=4)
        # Finite scores on the depth's dead node: alive, but nothing to expand.
        state.beam_nodes[:] = trie.num_real + 1
        with pytest.raises(RuntimeError, match="no live hypotheses"):
            decode_step(state)


class TestStepWorkspace:
    def test_same_key_returns_same_buffer(self):
        ws = StepWorkspace()
        a = ws.take("x", (3, 4))
        assert ws.take("x", (3, 4)) is a
        assert ws.take("x", (3, 5)) is not a
        assert ws.take("y", (3, 4)) is not a
        assert ws.num_buffers == 3
        assert ws.nbytes == (12 + 15 + 12) * 4

    def test_clear_drops_buffers(self):
        ws = StepWorkspace()
        a = ws.take("x", (2, 2))
        ws.clear()
        assert ws.num_buffers == 0
        assert ws.take("x", (2, 2)) is not a


# ----------------------------------------------------------------------
# Sparse stepper vs the dense single-request oracle
# ----------------------------------------------------------------------
class TestSparseDenseParity:
    @pytest.mark.parametrize("beam_size", [1, 4, 10, 16])
    def test_matches_single_request_oracle(self, beam_size):
        model, trie = make_model(), make_trie()
        batched = decode_prompts(model, MIXED_PROMPTS, trie, beam_size=beam_size)
        for prompt, hypotheses in zip(MIXED_PROMPTS, batched):
            reference = beam_search_items_single(model, prompt, trie, beam_size=beam_size)
            assert_same_hypotheses(hypotheses, reference)

    def test_prefix_cache_parity(self):
        model, trie = make_model(), make_trie()
        cache = PrefixKVCache()
        cold = decode_prompts(model, MIXED_PROMPTS, trie, beam_size=6,
                                         prefix_cache=cache)
        warm = decode_prompts(model, MIXED_PROMPTS, trie, beam_size=6,
                                         prefix_cache=cache)
        for prompt, a, b in zip(MIXED_PROMPTS, cold, warm):
            reference = beam_search_items_single(model, prompt, trie, beam_size=6)
            assert_same_hypotheses(a, reference, rtol=1e-4, atol=1e-5)
            assert_same_hypotheses(b, reference, rtol=1e-4, atol=1e-5)

    def test_prompt_buffers_are_sized_once(self):
        # A prefix hit seeds part of the prompt region and forwards the rest:
        # both land in one buffer exactly the prompt's width, so the forward
        # copies nothing.
        model, trie = make_model(), make_trie()
        cache = PrefixKVCache(min_prefix_len=2)
        grown = [prompt + [8, 9] for prompt in MIXED_PROMPTS]
        cohorts = (MIXED_PROMPTS, grown)
        # One session per row: stored whole, so each grown turn hits its first.
        sessions = [f"user:{row}" for row in range(len(MIXED_PROMPTS))]
        states = [
            decode_prefill(model, prompts, trie, beam_size=6, prefix_cache=cache,
                           sessions=sessions)
            for prompts in cohorts
        ]
        assert cache.stats.hits > 0  # the grown prompts' prefill seeded a prefix region
        live, hit = states

        def assert_exact(state):
            width = state.prompt_pads.shape[1]
            assert all(c.prompt.capacity == c.prompt.length == width for c in state.caches)

        results = {}
        for prompts, state in zip(cohorts, states):
            assert_exact(state)
            while not state.done:
                decode_step(state)
            assert_exact(state)  # steps append to the suffix region only
            results.update(zip(map(tuple, prompts), decode_finish(state)))
        assert len(results) == 2 * len(MIXED_PROMPTS)
        for prompt, got in results.items():
            expected = beam_search_items_single(model, list(prompt), trie, beam_size=6)
            assert_same_hypotheses(got, expected, rtol=1e-4, atol=1e-5)

    def test_lm_head_gather_matches_dense_columns(self):
        model = make_model()
        hidden = np.random.default_rng(3).standard_normal((5, 16)).astype(np.float32)
        ids = np.array([2, 11, 30, 59], dtype=np.int64)
        full = np.matmul(hidden, model.lm_head.weight.data)
        np.testing.assert_allclose(model.lm_head_gather(hidden, ids),
                                   full[:, ids], rtol=1e-6)

    def test_lm_head_gather_memoizes_per_identity(self):
        model = make_model()
        ids = np.array([1, 2, 3], dtype=np.int64)
        first = model._gathered_head_weight(ids)
        assert model._gathered_head_weight(ids) is first
        # extend_vocab rebinds the head weight: the cache must not go stale.
        model.extend_vocab(4)
        assert model._gathered_head_weight(ids) is not first


class TestForcedFastPath:
    def _count_forwards(self, model):
        calls = {"n": 0}
        original = model.hidden_states

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        model.hidden_states = counting
        return calls

    def test_forced_level_skips_forwards_and_keeps_parity(self):
        trie = make_forced_trie()
        model = make_model(seed=11)
        counts = self._count_forwards(model)
        batched = decode_prompts(model, MIXED_PROMPTS, trie, beam_size=4)
        # One forward per level would be prefill + 3 steps.  Level 2 is
        # forced (no forward) and its token is flushed inside level 3's
        # combined forward.
        assert trie.num_levels == 4
        assert counts["n"] == 3
        for prompt, got in zip(MIXED_PROMPTS, batched):
            # The oracle forwards at every level and scores the whole vocabulary.
            assert_same_hypotheses(
                got, beam_search_items_single(model, prompt, trie, beam_size=4))

    def test_trailing_forced_levels_never_forward(self):
        # A single-item trie is forced at every level after the root.
        trie = IndexTrie({0: (10, 12, 14, 16)})
        model = make_model(seed=5)
        counts = self._count_forwards(model)
        hypotheses = decode_prompts(model, [[1, 2]], trie, beam_size=8)
        assert counts["n"] == 1  # prefill only: levels 1..3 are all forced
        assert [h.item_id for h in hypotheses[0]] == [0]
        assert hypotheses[0][0].score == pytest.approx(
            beam_search_items_single(model, [1, 2], trie, beam_size=8)[0].score,
            abs=1e-6)


class TestStaleWeightGuards:
    def test_warm_narrowed_decodes_build_no_gathered_head(self, monkeypatch):
        # tiger_batch's shape: a narrowed step's live children rarely cover
        # a 256-wide level, and the gathered head is still the level's own.
        tiger = TIGER(build_random_index_set(400, 3, 256, np.random.default_rng(5)),
                      TIGERConfig(dim=16, max_history=3, beam_size=20, seed=2))
        tiger.eval()
        engine, memo = TIGEREngine(tiger), tiger._head_gather_cache
        built = []
        get = WeightMemo.get

        def counting(self, sources, params, build):
            def counted():
                if self is memo:
                    built.append(sources[0])
                return build()
            return get(self, sources, params, counted)

        monkeypatch.setattr(WeightMemo, "get", counting)
        rng = np.random.default_rng(8)
        for _ in range(10):
            histories = [list(rng.integers(0, 400, size=3)) for _ in range(4)]
            narrow = [rng.choice(400, size=32, replace=False).tolist() for _ in histories]
            state = decode_prefill(tiger, [engine.encode_history(h) for h in histories],
                                   tiger.trie, beam_size=20, narrow=narrow)
            while not state.done:
                decode_step(state)
            decode_finish(state)
        # One build per level union the decodes forwarded at, and no other:
        # every later step at that level hits the memo.
        assert built and all(any(ids is union for union in tiger.trie.unions) for ids in built)
        assert len({id(ids) for ids in built}) == len(built)

    def test_fused_qkv_sees_weight_updates_across_training(self):
        from repro.tensor import Adam
        from repro.tensor import functional as F

        model, trie = make_model(seed=21), make_trie()
        before = decode_prompts(model, [[1, 2]], trie, beam_size=5)
        optimizer = Adam(model.parameters(), lr=0.05)
        sequence = np.array([[1, 10, 12, 14]])
        model.train()
        for _ in range(30):
            optimizer.zero_grad()
            loss = F.cross_entropy(model(sequence[:, :-1]), sequence[:, 1:])
            loss.backward()
            optimizer.step()
        model.eval()
        after = decode_prompts(model, [[1, 2]], trie, beam_size=5)
        fresh = TinyLlama(model.config)
        fresh.load_state_dict(model.state_dict())
        fresh.eval()
        expected = decode_prompts(fresh, [[1, 2]], trie, beam_size=5)
        assert_same_hypotheses(after[0], expected[0])
        assert [h.score for h in after[0]] != [h.score for h in before[0]]


# ----------------------------------------------------------------------
# Engine adapters: the sparse head against each backend's oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_p5cid(tiny_dataset):
    model = P5CID(tiny_dataset, P5CIDConfig(epochs=2, seed=3))
    model.fit(tiny_dataset)
    return model


@pytest.fixture(scope="module")
def tiny_tiger(tiny_dataset):
    index_set = build_random_index_set(tiny_dataset.num_items, 3, 8,
                                       np.random.default_rng(3))
    model = TIGER(index_set, TIGERConfig(epochs=2, seed=3))
    model.fit(tiny_dataset)
    return model


def lcrec_oracle(model, histories, top_k):
    """Per-request rankings from the dense single-request beam search."""
    beam = max(model.config.beam_size, top_k)
    prompts = [model.encode_instruction(model.seq_instruction(h)) for h in histories]
    return [
        ranked_item_ids(beam_search_items_single(model.lm, p, model.trie, beam_size=beam), top_k)
        for p in prompts
    ]


class TestEngineSparseParity:
    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_lcrec_engine_parity(self, tiny_lcrec, tiny_dataset, batch):
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(batch)]
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        assert engine.recommend_many(histories, top_k=5) == lcrec_oracle(tiny_lcrec, histories, 5)

    def test_lcrec_engine_parity_with_prefix_cache(self, tiny_lcrec, tiny_dataset):
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(4)]
        engine = LCRecEngine(tiny_lcrec, prefix_cache=True)
        cold = engine.recommend_many(histories, top_k=5)
        warm = engine.recommend_many(histories, top_k=5)
        expected = lcrec_oracle(tiny_lcrec, histories, 5)
        assert cold == expected
        assert warm == expected

    def test_lcrec_continuous_service_parity(self, tiny_lcrec, tiny_dataset):
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(6)]
        with RecommendationService(
            LCRecEngine(tiny_lcrec, prefix_cache=None),
            batcher=MicroBatcherConfig(max_batch_size=3),
            mode="continuous",
        ) as service:
            pending = [service.submit(h, top_k=5) for h in histories]
            rankings = [p.result(timeout=60.0) for p in pending]
        assert rankings == lcrec_oracle(tiny_lcrec, histories, 5)

    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_p5cid_engine_parity(self, tiny_p5cid, tiny_dataset, batch):
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(batch)]
        ranked = P5CIDEngine(tiny_p5cid).recommend_many(histories, top_k=5)
        assert ranked == [tiny_p5cid.recommend(h, top_k=5) for h in histories]

    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_tiger_engine_parity(self, tiny_tiger, tiny_dataset, batch):
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(batch)]
        ranked = TIGEREngine(tiny_tiger).recommend_many(histories, top_k=5)
        # The single-request oracle loop scores the whole vocabulary.
        assert ranked == [tiny_tiger.recommend(h, top_k=5) for h in histories]


class TestStageTimings:
    def test_sync_flush_populates_stage_seconds(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        service = RecommendationService(LCRecEngine(tiny_lcrec, prefix_cache=None))
        pending = service.submit(history, top_k=3)
        service.flush()
        assert pending.result()
        assert service.stats.decode_seconds > 0
        assert service.stats.finalize_seconds >= 0

    def test_continuous_loop_populates_stage_seconds(self, tiny_lcrec, tiny_dataset):
        history = list(tiny_dataset.split.test_histories[0])
        with RecommendationService(
            LCRecEngine(tiny_lcrec, prefix_cache=None), mode="continuous"
        ) as service:
            assert service.submit(history, top_k=3).result(timeout=60.0)
            assert service.stats.decode_seconds > 0
