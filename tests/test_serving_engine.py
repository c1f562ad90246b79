"""The GenerativeEngine boundary: protocol, adapters, and backend parity.

Acceptance contracts pinned here:

* the service is model-agnostic — LC-Rec, TIGER and P5-CID all serve
  through the same ``RecommendationService`` via their adapters;
* LCRec rankings through ``LCRecEngine`` are identical to the
  single-request oracle in every mode (deadline and continuous) with the
  prefix cache on and off;
* TIGER rankings through ``TIGEREngine`` are identical to the
  ``TIGER.recommend`` single loop for B ∈ {1, 4, 16}, including the
  widen-to-catalog retry, top-k backfill, and single-item tries;
* TIGER decodes on the *shared* stepper (``repro.llm.decode_*`` over an
  encoder-decoder scorer): forced middle levels catch the KV cache up
  through ``pending``, retirement releases both cache sides and the step
  scratch, and none of it changes a ranking;
* the pre-PR-4 ``RecommendationService(model)`` shim is gone: a bare
  model raises ``TypeError`` naming ``LCRecEngine(model)`` as the fix.
"""

import numpy as np
import pytest

from repro.baselines import P5CID, P5CIDConfig, TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set
from test_live_width import narrowed_recommend

from repro.llm import (
    DecodeState,
    backfill_items,
    beam_search_items_single,
    decode_prefill,
    ranked_item_ids,
)
from repro.quantization import ItemIndexSet
from repro.serving import (
    GenerativeEngine,
    LCRecEngine,
    MicroBatcherConfig,
    P5CIDEngine,
    PrefixKVCache,
    RecommendationService,
    RecommendRequest,
    ServingCluster,
    TIGEREngine,
)


def lcrec_oracle(model, histories, top_k):
    """Per-request reference rankings via the single-request beam search."""
    beam = max(model.config.beam_size, top_k)
    rankings = []
    for history in histories:
        prompt = model.encode_instruction(model.seq_instruction(list(history)))
        hypotheses = beam_search_items_single(model.lm, prompt, model.trie, beam_size=beam)
        rankings.append(ranked_item_ids(hypotheses, top_k))
    return rankings


class TestEngineProtocol:
    def test_capability_flags(self, tiny_lcrec):
        engine = LCRecEngine(tiny_lcrec)
        assert isinstance(engine, GenerativeEngine)
        assert engine.supports_narrowing
        assert isinstance(engine.prefix_cache, PrefixKVCache)  # on by default for LC-Rec
        assert engine.trie.num_levels == tiny_lcrec.trie.num_levels
        assert engine.num_items == tiny_lcrec.trie.num_items
        assert engine.request_beam_size(3) == tiny_lcrec.config.beam_size
        assert engine.request_beam_size(99) == 99

    def test_prefill_returns_a_decode_state(self, tiny_lcrec, tiny_dataset):
        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        prompt = engine.encode_history(list(tiny_dataset.split.test_histories[0]))
        request = RecommendRequest(prompt_ids=prompt, top_k=3, beam_size=5)
        state = engine.prefill([request])
        assert isinstance(state, DecodeState)
        assert state.num_rows == 1
        assert not state.done

    def test_prefix_cache_override_through_service(self, tiny_lcrec):
        # The engine owns its cache; the service itself takes no such keyword.
        with pytest.raises(TypeError):
            RecommendationService(LCRecEngine(tiny_lcrec), prefix_cache=None)
        service = RecommendationService(LCRecEngine(tiny_lcrec, prefix_cache=None))
        assert service.prefix_cache is None
        service = RecommendationService(LCRecEngine(tiny_lcrec))
        assert service.prefix_cache is not None

    def test_prefix_cache_is_a_cache_true_or_none(self, tiny_lcrec):
        # None is the one spelling of "no cache": False is refused at once,
        # not at the first request's probe.
        with pytest.raises(TypeError, match="prefix_cache"):
            LCRecEngine(tiny_lcrec, prefix_cache=False)

    def test_unsupported_prefix_cache_rejected(self, tiny_dataset):
        index_set = build_random_index_set(tiny_dataset.num_items, 3, 8,
                                           np.random.default_rng(0))
        engine = TIGEREngine(TIGER(index_set, TIGERConfig(epochs=1, dim=16)))
        assert engine.prefix_cache is None
        # An encoder-decoder has no prompt K/V to cache: the stepper refuses
        # one, even an *empty* (falsy: PrefixKVCache has __len__) instance.
        with pytest.raises(ValueError, match="prefix cache"):
            decode_prefill(engine.model, [[2, 3]], engine.trie, prefix_cache=PrefixKVCache())

    def test_rebuilt_model_serves_its_current_lm(self, tiny_lcrec, tiny_dataset):
        """Swapping lm (what a re-build does) reaches the very next
        recommend: no engine outlives the weights it was built over."""
        import copy

        history = list(tiny_dataset.split.test_histories[0])
        expected = tiny_lcrec.recommend(history, top_k=3)
        original_lm = tiny_lcrec.lm
        swapped = copy.copy(original_lm)
        calls = []

        def new_beam_caches():
            calls.append(1)
            return original_lm.new_beam_caches()

        swapped.new_beam_caches = new_beam_caches
        try:
            tiny_lcrec.lm = swapped
            assert tiny_lcrec.recommend(history, top_k=3) == expected
            assert calls, "recommend decoded through a stale lm"
        finally:
            tiny_lcrec.lm = original_lm

    def test_bare_model_constructor_raises_with_fix(self, tiny_lcrec):
        # The PR-4 deprecation shim is gone: the error must say what to
        # wrap the model in, not silently adapt it.
        with pytest.raises(TypeError, match=r"LCRecEngine\(model\)"):
            RecommendationService(tiny_lcrec)
        with pytest.raises(TypeError, match="GenerativeEngine"):
            RecommendationService(None)


class TestLCRecEngineParity:
    """LCRec through the engine: identical to the single-request oracle in
    every mode, prefix cache on and off (the acceptance criterion)."""

    @pytest.mark.parametrize("mode", ["deadline", "continuous"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_all_modes_match_single_request_oracle(self, tiny_lcrec,
                                                   tiny_dataset, mode, cache):
        histories = [list(h) for h in tiny_dataset.split.test_histories[:6]]
        oracle = lcrec_oracle(tiny_lcrec, histories, 5)
        service = RecommendationService(
            LCRecEngine(tiny_lcrec, prefix_cache=cache or None),
            batcher=MicroBatcherConfig(max_batch_size=4), mode=mode)
        with service:
            pending = [service.submit(h, top_k=5) for h in histories]
            results = [p.result(timeout=30.0) for p in pending]
        assert results == oracle

    def test_mixed_beam_widths_served_continuously(self, tiny_lcrec,
                                                   tiny_dataset):
        """Co-queued requests with different effective beam widths are
        admitted FIFO in width-uniform groups (one prefill needs a uniform
        width) — never popped together and failed by prefill validation."""
        histories = [list(h) for h in tiny_dataset.split.test_histories[:6]]
        top_ks = [3, 20, 3, 20, 3, 20]  # alternating effective widths 10/20
        expected = [lcrec_oracle(tiny_lcrec, [h], k)[0]
                    for h, k in zip(histories, top_ks)]
        service = RecommendationService(
            LCRecEngine(tiny_lcrec, prefix_cache=None),
            batcher=MicroBatcherConfig(max_batch_size=4), mode="continuous")
        # Queue everything before the loop starts, so the first admission
        # pop sees the mixed-width queue all at once.
        pending = [service.submit(h, top_k=k)
                   for h, k in zip(histories, top_ks)]
        with service:
            results = [p.result(timeout=30.0) for p in pending]
        assert results == expected

    def test_sync_flush_matches_oracle(self, tiny_lcrec, tiny_dataset):
        histories = [list(h) for h in tiny_dataset.split.test_histories[:5]]
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=MicroBatcherConfig(max_batch_size=2))
        assert service.recommend_many(histories, top_k=5) == lcrec_oracle(
            tiny_lcrec, histories, 5)

    def test_model_engine_factory(self, tiny_lcrec, tiny_dataset):
        engine = tiny_lcrec.engine(prefix_cache=None)
        histories = [list(h) for h in tiny_dataset.split.test_histories[:3]]
        assert engine.recommend_many(histories, top_k=4) == lcrec_oracle(
            tiny_lcrec, histories, 4)


@pytest.fixture(scope="module")
def tiger(tiny_dataset):
    index_set = build_random_index_set(tiny_dataset.num_items, 3, 8,
                                       np.random.default_rng(0))
    model = TIGER(index_set, TIGERConfig(epochs=3, dim=16, beam_size=10))
    model.fit(tiny_dataset)
    return model


@pytest.fixture(scope="module")
def p5cid(tiny_dataset):
    model = P5CID(tiny_dataset, P5CIDConfig(epochs=3, dim=16,
                                            cluster_levels=2, branch=4,
                                            beam_size=10))
    model.fit(tiny_dataset)
    return model


class TestOneLevelPerStep:
    """A default-constructed engine advances exactly one trie level per step."""

    @pytest.mark.parametrize("backend, engine_class", [
        ("tiny_lcrec", LCRecEngine), ("p5cid", P5CIDEngine), ("tiger", TIGEREngine),
    ], ids=["lcrec", "p5cid", "tiger"])
    def test_unforced_decode_runs_one_forward_per_level(self, request, tiny_dataset,
                                                        backend, engine_class):
        engine = engine_class(request.getfixturevalue(backend))
        state = engine.prefill([
            RecommendRequest(prompt_ids=engine.encode_history(list(history)), top_k=5,
                             beam_size=5)
            for history in tiny_dataset.split.test_histories[:4]
        ])
        prefill_forwards = state.forwards

        def depths():
            return state.row_depths().tolist()

        assert depths() == [1] * 4
        while not state.done:
            before = depths()
            engine.step(state)
            assert depths() == [depth + 1 for depth in before]
        # No level of these tries is forced for the whole batch, so every
        # level after the prefill's costs exactly one forward.
        assert state.forwards == prefill_forwards + engine.trie.num_levels - 1


def bad_histories(num_items):
    """``(history, first bad id)``: the hostile inputs every surface must refuse."""
    return [([-1, 5], -1), ([num_items, 5], num_items), ([5, 3.7], 3.7), ([True, 2], True)]


class TestHistoryIdsAreValidated:
    """A history id outside ``[0, num_items)`` is a ``ValueError``, never a ranking."""

    @pytest.mark.parametrize("backend, engine_class", [
        ("tiny_lcrec", LCRecEngine), ("p5cid", P5CIDEngine), ("tiger", TIGEREngine),
    ], ids=["lcrec", "p5cid", "tiger"])
    def test_every_engine_refuses_bad_ids(self, request, backend, engine_class):
        engine = engine_class(request.getfixturevalue(backend))
        for history, bad in bad_histories(engine.num_items):
            with pytest.raises(ValueError, match=f"history item {bad!r} is not"):
                engine.recommend_many([[0, 1], history], top_k=3)
        last = engine.num_items - 1
        ids = [np.int64(last), 0, np.int32(1)]
        assert engine.recommend_many([ids], top_k=3) == engine.recommend_many(
            [[last, 0, 1]], top_k=3)

    def test_service_and_cluster_refuse_before_any_lane(self, tiny_lcrec):
        from repro.retrieval import ClusteredKNNConfig, HybridRecommender, RetrievalRecommender

        engine = LCRecEngine(tiny_lcrec, prefix_cache=None)
        retriever = RetrievalRecommender.from_lcrec(
            tiny_lcrec, ClusteredKNNConfig(n_clusters=4, n_probe=2))
        full = ServingCluster(engine, num_workers=1, fallback=retriever, max_backlog=1)
        full.submit([1, 2], top_k=3)  # the fleet is saturated: the next submit would degrade
        clients = [
            RecommendationService(engine),
            RecommendationService(engine, fallback=retriever),
            RecommendationService(engine, hybrid=HybridRecommender(engine, retriever)),
            ServingCluster(engine, num_workers=1),
            full,
        ]
        for client in clients:
            for history, bad in bad_histories(engine.num_items):
                with pytest.raises(ValueError, match=f"history item {bad!r} is not"):
                    client.submit(history, top_k=3)
        assert (full.stats.degraded, full.stats.submitted) == (0, 1)
        # An empty history is no bad id: decoded, or the fallback's cold start.
        plain, fallback = RecommendationService(engine), clients[1]
        handle = plain.submit([], top_k=3)
        plain.flush()
        assert handle.result() == engine.recommend_many([[]], top_k=3)[0]
        assert fallback.submit([], top_k=3).result() == retriever.recommend([], 3)


class TestTIGEREngine:
    def test_capability_flags(self, tiger):
        engine = TIGEREngine(tiger)
        assert engine.supports_narrowing
        assert engine.prefix_cache is None
        assert engine.trie.num_levels == tiger.num_levels
        assert engine.num_items == tiger.trie.num_items

    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_batched_matches_single_loop(self, tiger, tiny_dataset, batch):
        """Rankings bit-identical to TIGER.recommend for B in {1, 4, 16}."""
        pool = tiny_dataset.split.test_histories
        histories = [list(pool[i % len(pool)]) for i in range(batch)]
        batched = tiger.recommend_many(histories, top_k=10)
        assert batched == [tiger.recommend(h, top_k=10) for h in histories]

    def test_top_k_backfill_matches_single_loop(self, tiger, tiny_dataset):
        """Widen-to-catalog retry + deterministic backfill, batched."""
        num_items = tiny_dataset.num_items
        histories = [list(h) for h in tiny_dataset.split.test_histories[:4]]
        for top_k in (1, num_items, num_items + 7):
            batched = tiger.recommend_many(histories, top_k=top_k)
            assert batched == [tiger.recommend(h, top_k=top_k) for h in histories]
            assert all(len(r) == min(top_k, num_items) for r in batched)
        everything = tiger.recommend_many(histories[:1], top_k=num_items + 7)[0]
        assert sorted(everything) == list(range(num_items))

    def test_single_item_trie(self, tiny_dataset):
        """A one-item catalog: effective width 1, fillers never surface."""
        index_set = build_random_index_set(1, 3, 8, np.random.default_rng(3))
        model = TIGER(index_set, TIGERConfig(epochs=1, dim=16, beam_size=5))
        model.eval()  # untrained weights; eval mode keeps dropout off
        histories = [[0], [0, 0], [0, 0, 0]]
        batched = model.recommend_many(histories, top_k=3)
        assert batched == [model.recommend(h, top_k=3) for h in histories]
        assert all(r == [0] for r in batched)

    def test_serves_through_shared_service(self, tiger, tiny_dataset):
        """The same RecommendationService machinery serves TIGER."""
        histories = [list(h) for h in tiny_dataset.split.test_histories[:5]]
        expected = [tiger.recommend(h, top_k=5) for h in histories]
        service = RecommendationService(
            TIGEREngine(tiger), batcher=MicroBatcherConfig(max_batch_size=4))
        assert service.recommend_many(histories, top_k=5) == expected
        # Async deadline-batched mode too: the background loop is engine-
        # agnostic.
        with RecommendationService(
                TIGEREngine(tiger), batcher=MicroBatcherConfig(max_batch_size=4),
                deadline_ms=20.0) as async_service:
            pending = [async_service.submit(h, top_k=5) for h in histories]
            assert [p.result(timeout=30.0) for p in pending] == expected

    def test_continuous_mode_serves_closed_cohorts(self, tiger, tiny_dataset):
        """The continuous loop decodes closed cohorts: the single loop's rankings."""
        histories = [list(h) for h in tiny_dataset.split.test_histories[:6]]
        service = RecommendationService(
            TIGEREngine(tiger), batcher=MicroBatcherConfig(max_batch_size=4), mode="continuous")
        with service:
            pending = [service.submit(h, top_k=5) for h in histories]
            results = [p.result(timeout=30.0) for p in pending]
        assert results == [tiger.recommend(h, top_k=5) for h in histories]
        assert service.stats.joins == 0 and service.stats.requests == len(histories)


def mixed_fanout_index_set():
    """18 items, 4 levels: the second level is forced under two of the three
    first codes and a real choice under the third, so whether a decode skips
    that forward depends on which beams are alive."""
    codes = [(0, 0, c, d) for c in range(3) for d in range(2)]
    codes += [(1, 1, c, d) for c in range(2) for d in range(3)]
    codes += [(2, b, c, 0) for b in range(3) for c in range(2)]
    return ItemIndexSet(np.array(codes), [3, 3, 3, 3])


class TestTIGEROnTheSharedStepper:
    """What the private TIGER stepper never had: KV caches and ``pending``."""

    @pytest.fixture(scope="class")
    def tiger(self):
        model = TIGER(mixed_fanout_index_set(),
                      TIGERConfig(dim=16, max_history=3, beam_size=2, seed=1))
        rng = np.random.default_rng(7)
        for param in model.parameters():  # untrained, but no two rows tie
            param.data += (rng.standard_normal(param.shape) * 0.3).astype(np.float32)
        model.eval()
        return model

    @pytest.fixture(scope="class")
    def histories(self, tiger):
        rng = np.random.default_rng(3)
        return [list(rng.integers(0, tiger.trie.num_items, size=rng.integers(1, 5)))
                for _ in range(12)]

    @staticmethod
    def drive(engine, histories, top_k, beam_size, narrow_items=None):
        """Prefill + step to depth; returns (state, requests, pending width of each forward)."""
        requests = [RecommendRequest(prompt_ids=engine.encode_history(h), top_k=top_k,
                                     beam_size=beam_size, narrow_items=narrow_items)
                    for h in histories]
        state = engine.prefill(requests)
        assert isinstance(state, DecodeState) and state.model is engine.model
        widths = []
        while not state.done:
            before, width = state.forwards, state.pending.shape[1]
            engine.step(state)
            if state.forwards > before:
                widths.append(width)
        return state, requests, widths

    @pytest.mark.parametrize("candidates, widths", [
        (range(18), [1, 1, 1]),  # a free first code alive: one token per forward
        (range(12), [2, 1]),  # level 1 forced: level 2 forwards both pending tokens
        (range(12, 18), [1, 1]),  # level 3 forced: its token is never forwarded
    ], ids=["free", "forced-middle", "forced-last"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_forced_levels_catch_up_through_pending(self, tiger, histories, candidates,
                                                    widths, batch):
        # Which levels are forced depends on which beams are alive, which
        # narrowing controls; beams as wide as the candidate set keep the
        # decode exhaustive, so the exhaustive oracle ranking is the target.
        candidates = tuple(candidates)
        engine = TIGEREngine(tiger)
        state, requests, seen = self.drive(engine, histories[:batch], top_k=len(candidates),
                                           beam_size=len(candidates), narrow_items=candidates)
        assert seen == widths
        assert state.forwards == 2 + len(widths)  # encoder + BOS + the unforced levels
        ranked = engine.finalize(requests, engine.retire(state))
        full = [tiger.recommend(h, top_k=tiger.trie.num_items) for h in histories[:batch]]
        assert ranked == [[item for item in ranking if item in candidates] for ranking in full]

    @pytest.mark.parametrize("batch", [1, 4, 12])
    def test_matches_single_loop(self, tiger, histories, batch):
        engine = TIGEREngine(tiger)
        num_items = tiger.trie.num_items
        for top_k in (2, 5, num_items + 3):  # the last: beams wider than the catalog
            got = engine.recommend_many(histories[:batch], top_k=top_k)
            assert got == [tiger.recommend(h, top_k=top_k) for h in histories[:batch]]

    def test_narrowed_matches_full_decode_restricted(self, tiger, histories):
        engine = TIGEREngine(tiger)
        num_items = tiger.trie.num_items
        full = [tiger.recommend(h, top_k=num_items) for h in histories]  # the dense oracle
        for candidates in ([0, 1, 7, 8], [3, 12, 13, 17], list(range(0, num_items, 2))):
            expected = [[item for item in ranking if item in candidates] for ranking in full]
            got = narrowed_recommend(engine, histories, candidates, top_k=len(candidates))
            assert got == expected

    def test_widen_to_catalog_retry(self, tiger, histories):
        # A beam narrower than top_k comes up short; finalize re-decodes the
        # short rows at catalog width, which is the exhaustive ranking.
        engine = TIGEREngine(tiger)
        num_items = tiger.trie.num_items
        state, requests, _ = self.drive(engine, histories[:4], top_k=5, beam_size=1)
        hypotheses = engine.retire(state)
        assert all(len(row) == 1 for row in hypotheses)
        ranked = engine.finalize(requests, hypotheses)
        assert ranked == [tiger.recommend(h, top_k=num_items)[:5] for h in histories[:4]]

    def test_served_through_the_scheduler(self, tiger, histories):
        """The service's admission serves TIGER one closed cohort per
        ``engine.decode`` call, and one finalize call widens the short row
        beside the normal ones."""

        class ModelBeams(TIGEREngine):  # beam 2 whatever top_k: top_k=5 comes up short
            def request_beam_size(self, top_k):
                return self.default_beam_size

        engine = ModelBeams(tiger)
        decoded = []
        decode = engine.decode
        engine.decode = lambda reqs: decoded.append(len(reqs)) or decode(reqs)

        finalized = []
        finalize = engine.finalize
        engine.finalize = lambda reqs, hyps: finalized.append(len(reqs)) or finalize(reqs, hyps)
        service = RecommendationService(
            engine, batcher=MicroBatcherConfig(max_batch_size=4))
        normal = [service.submit(h, top_k=2) for h in histories[:3]]
        short = service.submit(histories[3], top_k=5)
        assert service.flush() == 4
        assert finalized == [4]  # one call for the whole cohort
        assert [p.result() for p in normal] == [tiger.recommend(h, top_k=2) for h in histories[:3]]
        # The short row was re-decoded at catalog width: the exhaustive ranking.
        assert short.result() == tiger.recommend(histories[3], top_k=tiger.trie.num_items)[:5]
        assert decoded == [4, 1]  # the cohort, then finalize's widened re-decode of the short row
        assert service.backlog == 0
        assert (service.stats.batches, service.stats.joins) == (1, 0)

    def test_scratch_and_cache_rows_are_released(self, tiger, histories):
        engine = TIGEREngine(tiger)
        state, _, _ = self.drive(engine, histories[:3], top_k=3, beam_size=3)
        workspace = state.workspace
        assert workspace.nbytes > 0
        engine.retire(state)
        assert workspace.nbytes == 0
        assert state.caches == []  # the last row took the self and cross K/V along

    def test_steps_at_a_fixed_row_count_allocate_nothing_new(self):
        # Every prefix has two children and there are two beams: no forced
        # level and a fixed live width, so every step is the same (B*2, 1)
        # forward and reuses the first step's scratch.
        codes = np.array([(a, b, c, d) for a in range(2) for b in range(2)
                          for c in range(2) for d in range(2)])
        model = TIGER(ItemIndexSet(codes, [2, 2, 2, 2]), TIGERConfig(dim=16, max_history=3))
        model.eval()
        engine = TIGEREngine(model)
        state = engine.prefill([RecommendRequest(prompt_ids=engine.encode_history([item]),
                                                 top_k=2, beam_size=2) for item in (3, 9)])
        assert state.workspace.num_buffers == 0  # prefill scratch left with the B-row shape
        engine.step(state)
        buffers, nbytes = state.workspace.num_buffers, state.workspace.nbytes
        assert buffers > 0
        while not state.done:
            engine.step(state)
            assert (state.workspace.num_buffers, state.workspace.nbytes) == (buffers, nbytes)


def p5cid_oracle(model, history, top_k):
    """P5-CID's ranking rebuilt from the dense single-request search: beam
    ``max(beam_size, top_k)``, one widen to the catalog when the ranking is
    short, then the smallest unused ids.  The engine caps every beam at the
    LM vocabulary as well (14 tokens on this fixture), so the oracle does."""
    num_items = model.trie.num_items
    cap = min(num_items, model.lm.vocab_size)
    prompt = P5CIDEngine(model).encode_history(history)
    beam = max(model.config.beam_size, top_k)
    hypotheses = beam_search_items_single(model.lm, prompt, model.trie, min(beam, cap))
    ranked = ranked_item_ids(hypotheses, top_k)
    if len(ranked) < min(top_k, num_items) and beam < num_items:
        widened = beam_search_items_single(model.lm, prompt, model.trie, cap)
        ranked = ranked_item_ids(widened, top_k)
    return backfill_items(ranked, top_k, num_items)


class TestP5CIDEngine:
    @pytest.mark.parametrize("top_k", [1, 5, 20, 43])
    def test_matches_the_single_request_oracle(self, p5cid, tiny_dataset, top_k):
        histories = [list(h) for h in tiny_dataset.split.test_histories[:8]]
        expected = [p5cid_oracle(p5cid, h, top_k) for h in histories]
        assert P5CIDEngine(p5cid).recommend_many(histories, top_k=top_k) == expected

    def test_capability_flags(self, p5cid):
        engine = P5CIDEngine(p5cid)
        assert engine.supports_narrowing
        assert engine.prefix_cache is None  # off by default for P5-CID

    def test_serves_through_shared_service_continuously(self, p5cid,
                                                        tiny_dataset):
        """P5-CID inherits continuous batching from the decoder engine."""
        histories = [list(h) for h in tiny_dataset.split.test_histories[:6]]
        expected = [p5cid.recommend(h, top_k=5) for h in histories]
        with RecommendationService(
                P5CIDEngine(p5cid), batcher=MicroBatcherConfig(max_batch_size=4),
                mode="continuous") as service:
            pending = [service.submit(h, top_k=5) for h in histories]
            results = [p.result(timeout=30.0) for p in pending]
        assert results == expected

    def test_full_top_k_guarantee_preserved(self, p5cid, tiny_dataset):
        num_items = tiny_dataset.num_items
        histories = [list(h) for h in tiny_dataset.split.test_histories[:3]]
        for top_k in (1, num_items, num_items + 3):
            rankings = p5cid.recommend_many(histories, top_k=top_k)
            assert all(len(r) == min(top_k, num_items) for r in rankings)
            assert rankings == [p5cid.recommend(h, top_k=top_k) for h in histories]
