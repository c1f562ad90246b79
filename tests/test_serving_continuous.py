"""Closed cohorts: stepper parity, head-of-queue admission, the continuous loop.

A decode is a closed cohort: one prefill's rows, stepped in lockstep and
harvested together, in one ``engine.decode`` call.  The parity suite pins
the stepper to the one-shot decode, the admission tests cover what forms
a cohort (the queue's FIFO head, one effective beam width, the width cap),
and the service tests drive the whole background loop under concurrent
submitters — a request submitted mid-cohort waits for that cohort to
finish.  Every driver (sync ``flush()``, the deadline thread, the
continuous loop) serves a cohort the same way, so the failure-isolation
matrix at the end runs them all.
"""

import contextlib
import sys
import threading

import numpy as np
import pytest

from repro.llm import (
    LMConfig,
    TinyLlama,
    beam_search_items_single,
    decode_finish,
    decode_prefill,
    decode_step,
)
from repro.quantization import IndexTrie
from repro.serving import (
    LCRecEngine,
    MicroBatcherConfig,
    RecommendationService,
    RecommendRequest,
    RequestQueue,
    TrieDecoderEngine,
)

from helpers import decode_prompts


def make_model(vocab=30, num_layers=2):
    model = TinyLlama(LMConfig(vocab_size=vocab, dim=16, num_layers=num_layers,
                               num_heads=2, ffn_hidden=24, max_seq_len=64,
                               seed=7))
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


LIVE_PROMPTS = [[1, 2, 3], [4, 5]]
LATE_PROMPTS = [[2, 2, 6, 7], [3, 3, 3], [1]]


def request(prompt, beam_size=5, top_k=3):
    return RecommendRequest(prompt_ids=list(prompt), top_k=top_k,
                            beam_size=beam_size)


def tick(engine, queue, served, max_width=8):
    """The continuous loop's body by hand: the queue's head, up to
    ``max_width`` requests of one effective beam width, is the next cohort,
    decoded in one call."""
    cohort = queue.pop_front(max_width, lambda r: engine.effective_beams(r.beam_size))
    if cohort:
        served.extend(zip(cohort, engine.decode(cohort)))
    return cohort


def arrive_while_stepping(engine, queue, arrivals):
    """Push ``arrivals[n]`` (requests) into ``queue`` during the engine's
    ``n``-th step, i.e. while a cohort is mid-decode; returns the step count."""
    arrivals, steps = list(arrivals), []
    step = engine.step

    def stepping(state):
        if len(steps) < len(arrivals):
            for r in arrivals[len(steps)]:
                assert queue.try_push(r)
        steps.append(state.num_rows)
        step(state)

    engine.step = stepping
    return steps


class TestStepperParity:
    """prefill/step/finish must reproduce the one-shot engine exactly."""

    def test_stepper_matches_one_shot(self):
        model, trie = make_model(), make_trie()
        one_shot = decode_prompts(model, LIVE_PROMPTS + LATE_PROMPTS,
                                             trie, beam_size=5)
        state = decode_prefill(model, LIVE_PROMPTS + LATE_PROMPTS, trie,
                               beam_size=5)
        for _ in range(1, trie.num_levels):
            decode_step(state)
        stepped = decode_finish(state)
        for a, b in zip(stepped, one_shot):
            assert [h.token_ids for h in a] == [h.token_ids for h in b]
            assert [h.score for h in a] == [h.score for h in b]

    def test_early_rows_retire_before_late_rows(self):
        """Delivery follows admission: rows queued behind a live cohort form
        the next cohort once it has finished, so they are delivered after it."""
        model, trie = make_model(), make_trie()
        engine, queue = TrieDecoderEngine(model, trie), RequestQueue()
        early = [request(p) for p in LIVE_PROMPTS]
        late = [request(p) for p in LATE_PROMPTS]
        for r in early:
            assert queue.try_push(r)
        arrive_while_stepping(engine, queue, [late])
        delivered = []
        assert tick(engine, queue, delivered) == early
        assert tick(engine, queue, delivered) == late
        assert tick(engine, queue, delivered) == []
        order = [r.request_id for r, _ in delivered]
        assert order == [r.request_id for r in early + late]
        for req, hyps in delivered:
            expected = decode_prompts(model, [req.prompt_ids], trie, beam_size=5)[0]
            assert [h.token_ids for h in hyps] == [h.token_ids for h in expected]


class TestStepValidation:
    def test_step_requires_retirement_first(self):
        model, trie = make_model(), make_trie()
        state = decode_prefill(model, LIVE_PROMPTS, trie, beam_size=5)
        for _ in range(1, trie.num_levels):
            decode_step(state)
        with pytest.raises(RuntimeError, match="retire"):
            decode_step(state)

    def test_retire_unfinished_row_rejected(self):
        model, trie = make_model(), make_trie()
        state = decode_prefill(model, LIVE_PROMPTS, trie, beam_size=5)
        with pytest.raises(ValueError, match="final trie level"):
            decode_finish(state)


class TestContinuousScheduler:
    """What forms a cohort: one decode call each, the queue's head of one
    effective beam width, at most ``max_batch_size`` requests."""

    def test_admit_step_parity(self):
        model, trie = make_model(), make_trie()
        reference = {
            tuple(p): decode_prompts(model, [p], trie, beam_size=5)[0]
            for p in LIVE_PROMPTS + LATE_PROMPTS
        }
        engine = TrieDecoderEngine(model, trie)
        early = [request(p) for p in LIVE_PROMPTS]
        late = [request(p) for p in LATE_PROMPTS]
        delivered = [pair for cohort in (early, late)
                     for pair in zip(cohort, engine.decode(cohort))]
        assert [req.request_id for req, _ in delivered] == [
            r.request_id for r in early + late
        ]
        for req, hyps in delivered:
            expected = reference[tuple(req.prompt_ids)]
            assert [h.item_id for h in hyps] == [h.item_id for h in expected]

    def test_width_cap_enforced(self, tiny_lcrec, tiny_dataset):
        service = RecommendationService(
            LCRecEngine(tiny_lcrec), batcher=MicroBatcherConfig(max_batch_size=2),
            mode="continuous")
        cohorts = []
        decode = service.engine.decode
        service.engine.decode = lambda requests: cohorts.append(len(requests)) or decode(requests)
        pending = [service.submit(h, top_k=3) for h in tiny_dataset.split.test_histories[:5]]
        with service:
            assert all(len(p.result(timeout=20.0)) == 3 for p in pending)
        assert cohorts == [2, 2, 1]  # queued before the start: the head, two at a time

    def test_beam_compatibility_gate(self):
        # One cohort is one decode, so the queue's head latches its
        # effective beam width and the pop takes only followers that match it.
        model, trie = make_model(), make_trie()
        engine, queue = TrieDecoderEngine(model, trie), RequestQueue()
        head, same, other = request([1, 2], beam_size=5), request([3], beam_size=50), request(
            [3], beam_size=2)
        for r in (head, same, other):
            assert queue.try_push(r)
        # Same *effective* width is compatible even if raw sizes differ:
        # the 5-item trie clamps any beam >= 5 to 5 hypotheses.
        assert tick(engine, queue, []) == [head, same]
        assert tick(engine, queue, []) == [other]  # a fresh latch


class TestQueueAdmissionPrimitives:
    def test_pop_front_respects_fifo_and_predicate(self):
        queue = RequestQueue()
        first = request([1, 2], beam_size=5)
        blocker = request([3], beam_size=2)
        behind = request([4], beam_size=5)
        for r in (first, blocker, behind):
            assert queue.try_push(r)
        popped = queue.pop_front(10, lambda r: r.beam_size == 5)
        # FIFO is never bypassed: the incompatible head blocks what follows.
        assert [r.request_id for r in popped] == [first.request_id]
        assert len(queue) == 2

    def test_pop_front_limit(self):
        queue = RequestQueue()
        reqs = [request([i + 1]) for i in range(5)]
        for r in reqs:
            assert queue.try_push(r)
        popped = queue.pop_front(3)
        assert [r.request_id for r in popped] == [r.request_id for r in reqs[:3]]

    def test_await_request_wakes_on_push(self):
        queue = RequestQueue()
        out = {}

        def waiter():
            out["ready"] = queue.await_request(lambda: False)

        thread = threading.Thread(target=waiter)
        thread.start()
        assert queue.try_push(request([1]))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert out["ready"] is True

    def test_await_request_stop(self):
        queue = RequestQueue()
        stop = threading.Event()
        out = {}

        def waiter():
            out["ready"] = queue.await_request(stop.is_set)

        thread = threading.Thread(target=waiter)
        thread.start()
        stop.set()
        queue.kick()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert out["ready"] is False


def make_deep_trie():
    """Four levels, ten items: a cohort needs three steps after its prefill."""
    codes = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1),
             (1, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)]
    return IndexTrie({item: tuple(10 + 2 * level + code for level, code in enumerate(seq))
                      for item, seq in enumerate(codes)})


class TestBacklogAwareAdmission:
    """The continuous loop's admission decision, with no thread in sight.

    ``tick`` is the loop's body by hand.  Whatever queues up while a cohort
    is mid-decode waits for it to finish and is then prefilled as one
    cohort, up to the width cap.
    """

    TRIES = {"three_levels": make_trie, "four_levels": make_deep_trie}

    @staticmethod
    def prompts(count):
        return [[1 + (i * 7 + j) % 9 for j in range(1 + i % 4)] for i in range(count)]

    @staticmethod
    def assert_each_served_once(served, requests, model, trie):
        assert sorted(r.request_id for r, _ in served) == sorted(
            r.request_id for r in requests)
        for req, hyps in served:
            expected = beam_search_items_single(model, req.prompt_ids, trie,
                                                beam_size=req.beam_size)
            assert [h.token_ids for h in hyps] == [h.token_ids for h in expected]
            np.testing.assert_allclose([h.score for h in hyps],
                                       [h.score for h in expected], rtol=1e-5, atol=2e-6)

    @pytest.mark.parametrize("shape", TRIES)
    def test_a_queue_that_fits_waits_for_idle_too(self, shape):
        model, trie = make_model(), self.TRIES[shape]()
        engine, queue, served = TrieDecoderEngine(model, trie), RequestQueue(), []
        requests = [request(p) for p in self.prompts(5)]
        for r in requests[:2]:
            assert queue.try_push(r)
        arrive_while_stepping(engine, queue, [requests[2:]])  # 6 rows of width to spare
        assert tick(engine, queue, served) == requests[:2]
        assert tick(engine, queue, served) == requests[2:]
        assert not queue
        self.assert_each_served_once(served, requests, model, trie)
        assert [r.request_id for r, _ in served] == [r.request_id for r in requests]

    @pytest.mark.parametrize("shape", TRIES)
    def test_a_backlog_waits_for_idle_and_is_prefilled_as_one(self, shape):
        model, trie = make_model(), self.TRIES[shape]()
        engine, queue, served = TrieDecoderEngine(model, trie), RequestQueue(), []
        requests = [request(p) for p in self.prompts(11)]
        for r in requests[:6]:
            assert queue.try_push(r)
        steps = arrive_while_stepping(engine, queue, [requests[6:]])  # 5 behind a live 6
        assert tick(engine, queue, served) == requests[:6]
        assert steps == [6] * (trie.num_levels - 1)  # the whole cohort, every level
        assert [r.request_id for r, _ in served] == [r.request_id for r in requests[:6]]
        assert tick(engine, queue, served) == requests[6:]
        assert steps[trie.num_levels - 1:] == [5] * (trie.num_levels - 1)
        self.assert_each_served_once(served, requests, model, trie)

    def test_an_incompatible_beam_width_at_the_head_still_blocks(self):
        model, trie = make_model(), make_deep_trie()
        engine, queue, served = TrieDecoderEngine(model, trie), RequestQueue(), []
        live = [request(p) for p in self.prompts(2)]
        blocker, behind = request([3, 4], beam_size=2), request([5], beam_size=5)
        for r in live:
            assert queue.try_push(r)
        arrive_while_stepping(engine, queue, [[blocker, behind]])  # both wait for the live cohort
        assert tick(engine, queue, served) == live
        assert tick(engine, queue, served) == [blocker]  # the head's latch: one width
        assert tick(engine, queue, served) == [behind]
        self.assert_each_served_once(served, live + [blocker, behind], model, trie)

    @pytest.mark.parametrize("shape", TRIES)
    def test_a_queue_that_never_fits_never_starves(self, shape):
        """Arrivals keep the queue deeper than the width cap at every level:
        full cohorts go through back to back, FIFO."""
        model, trie = make_model(), self.TRIES[shape]()
        engine, queue, served = TrieDecoderEngine(model, trie), RequestQueue(), []
        requests = [request(p) for p in self.prompts(30)]
        arrivals = iter(requests)

        def top_up():
            while len(queue) < 6 and (r := next(arrivals, None)) is not None:
                assert queue.try_push(r)

        step = engine.step
        engine.step = lambda state: top_up() or step(state)
        admitted = []
        top_up()
        while cohort := tick(engine, queue, served, max_width=4):
            assert len(cohort) == min(4, len(requests) - len(admitted))
            admitted.extend(cohort)
            top_up()
        assert admitted == requests
        self.assert_each_served_once(served, requests, model, trie)
        assert [r.request_id for r, _ in served] == [r.request_id for r in requests]


class TestContinuousService:
    @pytest.fixture()
    def service(self, tiny_lcrec):
        service = RecommendationService(
            LCRecEngine(tiny_lcrec),
            batcher=MicroBatcherConfig(max_batch_size=4),
            mode="continuous",
        )
        yield service
        service.stop()

    def test_mode_validated(self, tiny_lcrec):
        with pytest.raises(ValueError, match="mode"):
            RecommendationService(LCRecEngine(tiny_lcrec), mode="sometimes")

    def test_results_match_sync_recommend(self, service, tiny_lcrec,
                                          tiny_dataset):
        histories = tiny_dataset.split.test_histories[:6]
        service.start()
        pending = [service.submit(h, top_k=5) for h in histories]
        for history, p in zip(histories, pending):
            assert p.result(timeout=20.0) == tiny_lcrec.recommend(
                list(history), top_k=5)
        assert service.stats.requests == len(histories)
        assert service.stats.admissions >= 1

    def test_a_request_submitted_mid_cohort_waits_for_it_to_retire(
            self, service, tiny_lcrec, tiny_dataset, monkeypatch):
        """A request submitted while a cohort is mid-decode is prefilled once
        that cohort has finished, as the next cohort."""
        first, second = [list(h) for h in tiny_dataset.split.test_histories[:2]]
        seen, handles = [], []
        step = service.engine.step

        def watching(state):
            if not handles[1:]:  # the first cohort's first step: submit behind it
                handles.append(service.submit(second, top_k=5))
            seen.append((state.num_rows, service.stats.admissions, len(service.queue)))
            step(state)

        monkeypatch.setattr(service.engine, "step", watching)
        handles.append(service.submit(first, top_k=5))
        service.start()
        assert handles[0].result(timeout=20.0) == tiny_lcrec.recommend(first, top_k=5)
        assert handles[1].result(timeout=20.0) == tiny_lcrec.recommend(second, top_k=5)
        levels = service.engine.num_levels - 1
        # The first cohort steps to the end with the second request queued
        # behind it; only then is the second admitted, alone.
        assert seen == [(1, 0, 1)] * levels + [(1, 1, 0)] * levels
        assert service.stats.admissions == 2 and service.stats.joins == 0

    def test_concurrent_submitters_stress(self, service, tiny_lcrec,
                                          tiny_dataset):
        """Many threads submitting against a live decode stay bit-identical."""
        histories = tiny_dataset.split.test_histories[:10]
        expected = [tiny_lcrec.recommend(list(h), top_k=4) for h in histories]
        service.start()
        results: dict[int, list[int]] = {}

        def submit_and_wait(index, history):
            results[index] = service.submit(history, top_k=4).result(timeout=20.0)

        threads = [
            threading.Thread(target=submit_and_wait, args=(i, h))
            for i, h in enumerate(histories)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == len(histories)
        for index in range(len(histories)):
            assert results[index] == expected[index]

    def test_stop_drains_queued_and_in_flight(self, service, tiny_dataset):
        service.start()
        pending = [service.submit(h, top_k=3)
                   for h in tiny_dataset.split.test_histories[:6]]
        service.stop()
        assert all(p.done for p in pending)
        assert all(len(p.result()) == 3 for p in pending)
        assert not service.is_running

    def test_stop_without_drain_leaves_queue_served_synchronously(
            self, tiny_lcrec, tiny_dataset):
        service = RecommendationService(
            LCRecEngine(tiny_lcrec),
            batcher=MicroBatcherConfig(max_batch_size=4), mode="continuous")
        # Not started: nothing consumes the queue until stop/flush.
        pending = service.submit(tiny_dataset.split.test_histories[0], top_k=3)
        service.start()
        service.stop(drain=False)
        # Whether the loop admitted it before stop or left it queued, the
        # handle must still resolve via the synchronous fallback.
        assert len(pending.result(timeout=20.0)) == 3

    def test_sync_flush_coexists_with_continuous_loop(self, service, tiny_lcrec,
                                                      tiny_dataset):
        """flush() calls racing the loop share its decode lock: each waits
        out the cohort in flight before it drains, so once they all have
        returned, every handle is resolved — once."""
        histories = [list(h) for h in tiny_dataset.split.test_histories[:12]]
        pending = [None] * len(histories)

        def submit_and_flush(start):  # more flushers than cores, beside the loop
            for index in range(start, start + 3):
                pending[index] = service.submit(histories[index], top_k=3)
            service.flush()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service.start()
            threads = [threading.Thread(target=submit_and_flush, args=(start,))
                       for start in range(0, len(histories), 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        # Whoever drained a request has returned from its flush by now.
        assert all(p.done for p in pending)
        assert service.backlog == 0
        assert service.stats.requests == len(pending)  # nobody was decoded twice
        for history, p in zip(histories, pending):
            assert p.result(timeout=20.0) == tiny_lcrec.recommend(history, top_k=3)

    def test_failing_admission_spares_in_flight_requests(self, tiny_lcrec,
                                                         tiny_dataset,
                                                         monkeypatch):
        """A prefill failure fails only the requests it was admitting: the
        cohort admitted before it still delivers."""
        service = RecommendationService(
            LCRecEngine(tiny_lcrec, prefix_cache=False),
            batcher=MicroBatcherConfig(max_batch_size=4), mode="continuous")
        calls = {"count": 0}
        real_prefill = service.engine.prefill

        def flaky(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("admission blew up")
            return real_prefill(*args, **kwargs)

        monkeypatch.setattr(service.engine, "prefill", flaky)
        service.start()
        first = service.submit(tiny_dataset.split.test_histories[0], top_k=3)
        while calls["count"] == 0:  # first request is admitted and live
            threading.Event().wait(0.002)
        second = service.submit(tiny_dataset.split.test_histories[1], top_k=3)
        with pytest.raises(RuntimeError, match="admission blew up"):
            second.result(timeout=20.0)
        assert len(first.result(timeout=20.0)) == 3  # in-flight unharmed
        service.stop()
        assert service.backlog == 0


POISON = 7  # the top_k that marks the request an engine stage blows up on


class Poisoned(LCRecEngine):
    """Raises at one stage whenever the poisoned request is there, and
    records which requests that failure has to take down with it."""

    def __init__(self, model, stage):
        super().__init__(model, prefix_cache=False)
        self.stage = stage
        self.doomed = set()

    def boom(self, stage, present, doomed=None):
        if stage == self.stage and any(r.top_k == POISON for r in present):
            self.doomed |= {r.request_id for r in (present if doomed is None else doomed)}
            raise RuntimeError(f"{stage} boom")

    def decode(self, requests):
        self.cohort = list(requests)
        self.boom("decode", requests)  # one cohort is one decode: all of it fails
        return super().decode(requests)

    def prefill(self, requests):
        self.boom("prefill", requests)
        return super().prefill(requests)

    def step(self, state):
        self.boom("step", self.cohort)  # the cohort's decode state is lost
        super().step(state)

    def finalize(self, requests, all_hypotheses):
        # Only the poisoned request's own ranking is unobtainable.
        self.boom("finalize", requests, [r for r in requests if r.top_k == POISON])
        return super().finalize(requests, all_hypotheses)


class TestOneTick:
    """Every driver serves a cohort the same way, so an engine failure at
    any stage fails exactly the handles it owns under all of them: a
    failing decode (wherever in it) fails exactly its own cohort and spares
    the cohorts planned or queued behind it, a failing finalize only its
    own handle even when it was finalized in one call with others."""

    @pytest.mark.parametrize("stage", ["decode", "prefill", "step", "finalize"])
    @pytest.mark.parametrize("driver", ["sync", "deadline", "continuous"])
    def test_failure_isolation(self, tiny_lcrec, tiny_dataset, driver, stage):
        histories = [list(h) for h in tiny_dataset.split.test_histories[:6]]
        top_ks = [3, 3, POISON, 3, 3, 3]
        engine = Poisoned(tiny_lcrec, stage)
        service = RecommendationService(
            engine,
            batcher=MicroBatcherConfig(max_batch_size=2, bucket_width=10_000),
            deadline_ms=5.0,
            mode="continuous" if driver == "continuous" else "deadline")
        failed = set()
        with contextlib.nullcontext() if driver == "sync" else service:
            handles = [service.submit(h, top_k=k) for h, k in zip(histories, top_ks)]
            if driver == "sync":
                # Explicit flush() re-raises, but only after every batch ran.
                with pytest.raises(RuntimeError, match=f"{stage} boom"):
                    service.flush()
                assert all(handle.done for handle in handles)
            # A background loop the failure had killed would time these out.
            for handle, history, top_k in zip(handles, histories, top_ks):
                try:
                    ranking = handle.result(timeout=20.0)
                except RuntimeError as exc:
                    assert str(exc) == f"{stage} boom"
                    failed.add(handle.request_id)
                else:
                    assert ranking == tiny_lcrec.recommend(history, top_k=top_k)
        assert failed == engine.doomed
        assert handles[2].request_id in failed and len(failed) < len(handles)
        if stage == "finalize":
            assert failed == {handles[2].request_id}
        assert service.backlog == 0
