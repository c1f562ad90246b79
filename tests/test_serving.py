"""Serving subsystem: queue, micro-batcher, and the service facade."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    LCRecEngine,
    MicroBatcherConfig,
    RecommendationService,
    RecommendRequest,
    RequestQueue,
    ServingCluster,
    padding_fraction,
    plan_batches,
)


def request(length, top_k=10, beam_size=10):
    return RecommendRequest(prompt_ids=list(range(1, length + 1)),
                            top_k=top_k, beam_size=beam_size)


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue()
        submitted = [request(3), request(5), request(2)]
        for r in submitted:
            assert queue.try_push(r)
        assert len(queue) == 3
        drained = queue.drain()
        assert [r.request_id for r in drained] \
            == [r.request_id for r in submitted]
        assert len(queue) == 0
        assert not queue

    def test_drain_empties_the_queue(self):
        queue = RequestQueue()
        for _ in range(5):
            assert queue.try_push(request(4))
        assert len(queue.drain()) == 5
        assert len(queue) == 0
        assert queue.drain() == []

    def test_request_ids_unique(self):
        ids = {request(2).request_id for _ in range(50)}
        assert len(ids) == 50


class TestMicroBatcher:
    def test_respects_max_batch_size(self):
        config = MicroBatcherConfig(max_batch_size=4, bucket_width=100)
        batches = plan_batches([request(5) for _ in range(10)], config)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_buckets_by_length(self):
        config = MicroBatcherConfig(max_batch_size=64, bucket_width=2)
        requests = [request(n) for n in (3, 10, 4, 11, 5, 30)]
        batches = plan_batches(requests, config)
        assert [sorted(r.prompt_len for r in b) for b in batches] \
            == [[3, 4, 5], [10, 11], [30]]

    def test_nothing_dropped_or_duplicated(self):
        config = MicroBatcherConfig(max_batch_size=3, bucket_width=4)
        requests = [request(n) for n in (9, 1, 5, 5, 2, 8, 7, 3)]
        batches = plan_batches(requests, config)
        flat = [r.request_id for b in batches for r in b]
        assert sorted(flat) == sorted(r.request_id for r in requests)

    def test_never_mixes_beam_widths(self):
        """Beam width changes rankings, so co-batching must not mix it."""
        config = MicroBatcherConfig(max_batch_size=64, bucket_width=100)
        requests = [request(5, beam_size=b) for b in (10, 50, 10, 50, 10)]
        batches = plan_batches(requests, config)
        assert sorted(len(b) for b in batches) == [2, 3]
        for batch in batches:
            assert len({r.beam_size for r in batch}) == 1

    def test_width_bounds_padding_within_batch(self):
        config = MicroBatcherConfig(max_batch_size=64, bucket_width=2)
        requests = [request(n) for n in (3, 9, 4, 8, 5, 10)]
        for batch in plan_batches(requests, config):
            lengths = [r.prompt_len for r in batch]
            assert max(lengths) - min(lengths) <= 2

    def test_distinct_leading_tokens_do_not_fragment_batches(self):
        """The TIGER shape: every history starts with another item, lengths
        12-45.  The plan follows the length order alone, so 48 requests at
        ``max_batch_size=16`` are exactly three full batches."""
        lengths = [12 + (i * 34) // 48 for i in range(48)]
        requests = [
            RecommendRequest(prompt_ids=[100 + i] + [7] * (length - 1), beam_size=10)
            for i, length in zip(np.random.default_rng(0).permutation(48), lengths)
        ]
        arrival = [requests[i] for i in np.random.default_rng(1).permutation(48)]
        batches = plan_batches(arrival, MicroBatcherConfig(max_batch_size=16))
        assert [[r.prompt_len for r in b] for b in batches] == [
            lengths[:16], lengths[16:32], lengths[32:]
        ]

    def test_narrow_items_do_not_split_batches(self):
        """Narrowing is per row: candidate sets neither order nor close a batch."""
        requests = [request(5), request(6), request(5), request(7)]
        for r, items in zip(requests, [(3, 1), None, (2,), (3, 1)]):
            r.narrow_items = items
        (batch,) = plan_batches(requests, MicroBatcherConfig())
        assert [r.prompt_len for r in batch] == [5, 5, 6, 7]
        assert batch[:2] == [requests[0], requests[2]]  # FIFO among equals

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.lists(st.tuples(st.integers(1, 60), st.sampled_from([5, 10, 20])), max_size=40),
        max_batch_size=st.integers(1, 8),
        bucket_width=st.integers(0, 20),
    )
    def test_plan_properties(self, shapes, max_batch_size, bucket_width):
        requests = [request(length, beam_size=beam) for length, beam in shapes]
        config = MicroBatcherConfig(max_batch_size=max_batch_size, bucket_width=bucket_width)
        batches = plan_batches(requests, config)
        flat = [r.request_id for b in batches for r in b]
        assert sorted(flat) == sorted(r.request_id for r in requests)  # once each

        def spread(batch):
            return max(r.prompt_len for r in batch) - min(r.prompt_len for r in batch)

        for batch in batches:
            assert 1 <= len(batch) <= max_batch_size
            assert len({r.beam_size for r in batch}) == 1
            assert spread(batch) <= bucket_width
        for left, right in zip(batches, batches[1:]):
            if left[0].beam_size == right[0].beam_size:  # else unmergeable anyway
                merged = left + right
                assert len(merged) > max_batch_size or spread(merged) > bucket_width

    def test_empty_plan(self):
        assert plan_batches([], MicroBatcherConfig()) == []

    def test_config_validated(self):
        with pytest.raises(ValueError):
            plan_batches([request(2)], MicroBatcherConfig(max_batch_size=0))
        with pytest.raises(ValueError):
            plan_batches([request(2)], MicroBatcherConfig(bucket_width=-1))

    def test_padding_fraction(self):
        batch = [request(2), request(4)]
        assert padding_fraction(batch) == pytest.approx(2 / 8)
        assert padding_fraction([request(6)]) == 0.0

    def test_padding_fraction_uses_effective_lengths(self):
        """With a prefix cache, rows forward only their unseen suffix: the
        padding stat must reflect those effective widths, not raw prompts."""
        batch = [request(10), request(12)]
        effective = {batch[0].request_id: 1, batch[1].request_id: 4}
        fraction = padding_fraction(
            batch, lambda r: effective[r.request_id])
        assert fraction == pytest.approx((2 * 4 - 5) / (2 * 4))
        assert fraction != padding_fraction(batch)


class TestRecommendationService:
    """End-to-end: batched serving returns exactly what per-request does."""

    @pytest.fixture()
    def service(self, tiny_lcrec):
        return RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=MicroBatcherConfig(max_batch_size=4))

    def test_recommend_many_matches_per_request(self, service, tiny_lcrec,
                                                tiny_dataset):
        histories = tiny_dataset.split.test_histories[:6]
        batched = service.recommend_many(histories, top_k=5)
        for history, ranked in zip(histories, batched):
            assert ranked == tiny_lcrec.recommend(list(history), top_k=5)

    def test_submit_flush_result(self, service, tiny_dataset):
        pending = [service.submit(h, top_k=3)
                   for h in tiny_dataset.split.test_histories[:5]]
        assert not any(p.done for p in pending)
        served = service.flush()
        assert served == 5
        for p in pending:
            assert p.done
            assert len(p.result()) == 3

    @pytest.mark.parametrize("fleet", [False, True])
    def test_concurrent_flush_waits_for_the_flusher_holding_the_queue(
        self, service, tiny_dataset, fleet
    ):
        """``flush()`` decodes everything queued before the call: a flusher
        that finds the queue already taken by another waits for that one."""
        client = ServingCluster(service.engine, num_workers=1) if fleet else service
        worker = client.workers[0] if fleet else service
        handles = [client.submit(h, top_k=3) for h in tiny_dataset.split.test_histories[:5]]
        drained, release = threading.Event(), threading.Event()
        real_drain = worker.queue.drain

        def held_drain(*args):
            taken = real_drain(*args)
            if taken:  # flusher A, held between its drain and its first tick
                drained.set()
                release.wait(timeout=30)
            return taken

        worker.queue.drain = held_drain
        served, done_when_b_returned = {}, []

        def flush_b():
            served["b"] = client.flush()
            done_when_b_returned.extend(handle.done for handle in handles)

        flusher_a = threading.Thread(target=lambda: served.update(a=client.flush()))
        flusher_b = threading.Thread(target=flush_b)
        flusher_a.start()
        assert drained.wait(timeout=30)
        flusher_b.start()
        flusher_b.join(timeout=0.3)  # B must still be waiting for A here
        release.set()
        for thread in (flusher_a, flusher_b):
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert done_when_b_returned == [True] * 5
        # Each request resolved once: A served all five, B none.
        assert served == {"a": 5, "b": 0} and worker.stats.requests == 5
        assert all(len(handle.result()) == 3 for handle in handles)

    def test_result_triggers_flush(self, service, tiny_dataset):
        pending = service.submit(tiny_dataset.split.test_histories[0])
        ranked = pending.result()  # implicit flush
        assert len(ranked) == 10
        assert pending.done

    def test_intention_submission(self, service, tiny_lcrec):
        pending = service.submit_intention("looking for something nice",
                                           top_k=5)
        assert pending.result() == tiny_lcrec.recommend_for_intention(
            "looking for something nice", top_k=5)

    def test_stats_track_batches(self, service, tiny_dataset):
        service.recommend_many(tiny_dataset.split.test_histories[:6],
                               top_k=2)
        assert service.stats.requests == 6
        assert service.stats.batches >= 2  # max_batch_size=4
        assert 0.0 < service.stats.mean_batch_size <= 4.0
        assert 0.0 <= service.stats.mean_padding_fraction < 1.0

    def test_mixed_top_k_does_not_change_rankings(self, service, tiny_lcrec,
                                                  tiny_dataset):
        """A co-batched wide-beam request must not perturb its neighbors."""
        histories = tiny_dataset.split.test_histories[:3]
        pending = [service.submit(h, top_k=3) for h in histories]
        wide = service.submit(histories[0], top_k=30)  # wider beam
        service.flush()
        for history, p in zip(histories, pending):
            assert p.result() == tiny_lcrec.recommend(list(history), top_k=3)
        assert len(wide.result()) <= 30

    def test_padding_stats_use_post_cache_lengths(self, tiny_lcrec,
                                                  tiny_dataset):
        """A cached row forwards only its unseen suffix; the padding stat
        must be computed over those effective widths, not raw prompts."""
        service = RecommendationService(
            LCRecEngine(tiny_lcrec),
            batcher=MicroBatcherConfig(max_batch_size=4, bucket_width=10_000))
        history = list(tiny_dataset.split.test_histories[0])
        grown = history + [tiny_dataset.split.test_targets[0]]
        base_instr = tiny_lcrec.seq_instruction(history)
        grown_instr = tiny_lcrec.seq_instruction(grown)
        service.submit_instruction(base_instr, top_k=3)
        service.flush()  # warms the prefix cache with the base prompt
        before = service.stats.padding_fraction_sum

        # Probe *before* the decode inserts these prompts, exactly as the
        # batch planner does.
        effective = {}
        for instruction in (base_instr, grown_instr):
            ids = tiny_lcrec.encode_instruction(instruction)
            cached = service.prefix_cache.probe(ids, max_len=len(ids) - 1)
            effective[instruction] = len(ids) - cached
        assert effective[base_instr] == 1  # exact repeat: 1-token suffix

        pending = [service.submit_instruction(i, top_k=3)
                   for i in (base_instr, grown_instr)]
        service.flush()
        for p in pending:
            assert len(p.result()) == 3
        assert service.stats.batches == 2  # the pair co-batched
        widths = list(effective.values())
        expected = (2 * max(widths) - sum(widths)) / (2 * max(widths))
        assert (service.stats.padding_fraction_sum - before
                == pytest.approx(expected))

    def test_requires_built_model(self, tiny_dataset):
        from helpers import small_lcrec_config

        from repro.core import LCRec

        with pytest.raises(RuntimeError):
            LCRecEngine(LCRec(tiny_dataset, small_lcrec_config()))


class TestLCRecBatchedPaths:
    def test_recommend_many_matches_recommend(self, tiny_lcrec,
                                              tiny_dataset):
        histories = tiny_dataset.split.test_histories[:4]
        batched = tiny_lcrec.recommend_many(histories, top_k=7)
        for history, ranked in zip(histories, batched):
            assert ranked == tiny_lcrec.recommend(list(history), top_k=7)

    def test_recommend_for_intentions_batched(self, tiny_lcrec):
        texts = ["something nice", "a gift for a friend"]
        batched = tiny_lcrec.recommend_for_intentions(texts, top_k=4)
        for text, ranked in zip(texts, batched):
            assert ranked == tiny_lcrec.recommend_for_intention(text,
                                                                top_k=4)

    def test_batched_matches_reference_loop(self, tiny_lcrec, tiny_dataset):
        """Parity against the pre-batching single-request implementation."""
        from repro.llm import beam_search_items_single, ranked_item_ids

        histories = tiny_dataset.split.test_histories[:3]
        batched = tiny_lcrec.recommend_many(histories, top_k=5)
        beam = max(tiny_lcrec.config.beam_size, 5)
        for history, ranked in zip(histories, batched):
            prompt = tiny_lcrec.encode_instruction(
                tiny_lcrec.seq_instruction(list(history)))
            reference = beam_search_items_single(tiny_lcrec.lm, prompt,
                                                 tiny_lcrec.trie,
                                                 beam_size=beam)
            assert ranked == ranked_item_ids(reference, 5)

    def test_service_factory(self, tiny_lcrec):
        service = tiny_lcrec.service()
        assert isinstance(service, RecommendationService)

    def test_chat_ask_many(self, tiny_lcrec, tiny_dataset):
        from repro.core.chat import ChatSession

        session = ChatSession(tiny_lcrec,
                              history=list(tiny_dataset.split
                                           .test_histories[0]))
        results = session.ask_many(["something nice", "a fun game"],
                                   top_k=3)
        assert len(results) == 2
        assert session.num_turns == 2
        assert session.turns[0].query == "something nice"


class TestNonPositiveTopK:
    """``top_k < 1`` is refused on every surface, before any lane answers."""

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_every_surface_raises(self, top_k, tiny_lcrec, tiny_dataset):
        from repro.baselines import TIGER, TIGERConfig
        from repro.core.indexer import build_random_index_set
        from repro.retrieval import ClusteredKNNConfig, HybridRecommender, RetrievalRecommender

        history = list(tiny_dataset.split.test_histories[0])
        engine = LCRecEngine(tiny_lcrec, prefix_cache=False)
        retriever = RetrievalRecommender.from_lcrec(
            tiny_lcrec, ClusteredKNNConfig(n_clusters=4, n_probe=2))
        tiger = TIGER(build_random_index_set(tiny_dataset.num_items, 3, 8,
                                             np.random.default_rng(0)),
                      TIGERConfig(dim=16))
        clients = [
            RecommendationService(engine),
            RecommendationService(engine, fallback=retriever),  # cold-start lane
            RecommendationService(engine, hybrid=HybridRecommender(engine, retriever)),
            ServingCluster(engine, num_workers=1, fallback=retriever),
        ]
        calls = [
            lambda: RecommendRequest(prompt_ids=[1, 2, 3], top_k=top_k),
            lambda: engine.rank_prompts([[1, 2, 3]], top_k=top_k),
            lambda: tiger.recommend(history, top_k=top_k),
        ]
        for client in clients:
            calls += [
                lambda client=client: client.submit(history, top_k=top_k),
                lambda client=client: client.submit([], top_k=top_k),
                lambda client=client: client.submit_intention("a gift", top_k=top_k),
                lambda client=client: client.submit_instruction("a gift", top_k=top_k),
            ]
        for call in calls:
            with pytest.raises(ValueError, match="top_k must be positive"):
                call()


class TestKVCacheBeamAxis:
    def test_flattened_reorder_grows_and_shuffles(self):
        from repro.tensor import KVCache

        cache = KVCache()
        keys = np.arange(3 * 2 * 4 * 2, dtype=np.float32).reshape(3, 2, 4, 2)
        cache.append(keys, keys + 100)
        # Reorder may grow the batch axis: B=3 -> B*K=6, rows interleaved.
        cache.reorder(np.repeat(np.arange(3), 2))
        assert cache.batch_size == 6
        np.testing.assert_array_equal(cache.keys[0], cache.keys[1])
        np.testing.assert_array_equal(cache.keys[0], keys[0])
        np.testing.assert_array_equal(cache.keys[4], keys[2])
        # Flattened B*K reorder: request b keeps rows b*K..b*K+K-1.
        cache.reorder(np.array([1, 0, 3, 3, 5, 4]))
        np.testing.assert_array_equal(cache.keys[2], keys[1])
        np.testing.assert_array_equal(cache.keys[3], keys[1])
        np.testing.assert_array_equal(cache.values[2], keys[1] + 100)

    def test_append_after_reorder_keeps_single_column_write(self):
        from repro.tensor import KVCache

        cache = KVCache()
        keys = np.ones((2, 2, 3, 2), dtype=np.float32)
        cache.append(keys, keys)
        cache.reorder(np.array([1, 1, 0]))
        step = np.full((3, 2, 1, 2), 7.0, dtype=np.float32)
        k, v = cache.append(step, step)
        assert k.shape == (3, 2, 4, 2)
        np.testing.assert_array_equal(k[:, :, -1], step[:, :, 0])

    def test_beam_cache_fan_out_shares_prompt(self):
        from repro.tensor import BeamKVCache

        cache = BeamKVCache()
        prompt = np.arange(2 * 2 * 3 * 2, dtype=np.float32).reshape(2, 2, 3, 2)
        cache.append(prompt, prompt)
        cache.fan_out(4)
        assert cache.batch_size == 8
        assert cache.prompt.batch_size == 2  # prompt rows are not copied
        step = np.zeros((8, 2, 1, 2), dtype=np.float32)
        cache.append(step, step)
        assert cache.length == 4
        assert cache.suffix.batch_size == 8
        with pytest.raises(RuntimeError):
            cache.fan_out(2)  # already fanned
