"""Async serving: deadline-batched background flushing and its lifecycle."""

import threading
import time

import pytest

from repro.serving import (
    LCRecEngine,
    MicroBatcherConfig,
    RecommendationService,
    RecommendRequest,
    RequestQueue,
)


def request(length, beam_size=10):
    return RecommendRequest(prompt_ids=list(range(1, length + 1)), beam_size=beam_size)


class TestAwaitBatch:
    """The queue-side primitive the flush loop is built on."""

    def test_size_trigger_fires_immediately(self):
        queue = RequestQueue()
        for _ in range(3):
            assert queue.try_push(request(4))
        start = time.monotonic()
        drained, reason = queue.await_batch(60.0, 3, should_stop=lambda: False)
        assert reason == "size"
        assert len(drained) == 3
        assert time.monotonic() - start < 1.0  # did not wait out the deadline
        assert len(queue) == 0

    def test_deadline_trigger_fires_on_oldest_age(self):
        queue = RequestQueue()
        assert queue.try_push(request(4))
        start = time.monotonic()
        drained, reason = queue.await_batch(0.05, 100, should_stop=lambda: False)
        elapsed = time.monotonic() - start
        assert reason == "deadline"
        assert len(drained) == 1
        assert elapsed >= 0.04  # waited for the budget...
        assert elapsed < 5.0  # ...but not forever

    def test_stop_wakes_empty_wait(self):
        queue = RequestQueue()
        stop = threading.Event()
        results = {}

        def waiter():
            results["out"] = queue.await_batch(60.0, 100, should_stop=stop.is_set)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        stop.set()
        queue.kick()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results["out"] == ([], "stop")

    def test_push_wakes_waiter_for_size_trigger(self):
        queue = RequestQueue()
        results = {}

        def waiter():
            results["out"] = queue.await_batch(60.0, 2, should_stop=lambda: False)

        thread = threading.Thread(target=waiter)
        thread.start()
        assert queue.try_push(request(4))
        assert queue.try_push(request(4))
        thread.join(timeout=5)
        assert not thread.is_alive()
        drained, reason = results["out"]
        assert reason == "size"
        assert len(drained) == 2

    def test_oldest_age(self):
        queue = RequestQueue()
        assert queue.try_push(request(3))
        time.sleep(0.01)
        (oldest,) = queue.pop_front(1)
        assert time.monotonic() - oldest.enqueued_at >= 0.01


class TestAsyncService:
    @pytest.fixture()
    def service(self, tiny_lcrec):
        service = RecommendationService(
            LCRecEngine(tiny_lcrec),
            batcher=MicroBatcherConfig(max_batch_size=4),
            deadline_ms=40.0,
        )
        yield service
        service.stop()

    def test_deadline_flushes_partial_batch(self, service, tiny_dataset):
        """Fewer requests than a batch still get served within the budget."""
        service.start()
        pending = [service.submit(h, top_k=3) for h in tiny_dataset.split.test_histories[:2]]
        rankings = [p.result(timeout=10.0) for p in pending]
        assert all(len(r) == 3 for r in rankings)
        assert service.stats.deadline_flushes >= 1
        assert service.stats.requests == 2

    def test_full_batch_flushes_before_deadline(self, tiny_lcrec, tiny_dataset):
        service = RecommendationService(
            LCRecEngine(tiny_lcrec),
            batcher=MicroBatcherConfig(max_batch_size=4),
            deadline_ms=60_000.0,  # the deadline alone would take a minute
        )
        with service:
            pending = [
                service.submit(h, top_k=3) for h in tiny_dataset.split.test_histories[:4]
            ]
            rankings = [p.result(timeout=10.0) for p in pending]
        assert all(len(r) == 3 for r in rankings)
        assert service.stats.size_flushes >= 1

    def test_stop_drains_in_flight_work(self, service, tiny_dataset):
        service.start()
        pending = [service.submit(h, top_k=3) for h in tiny_dataset.split.test_histories[:3]]
        service.stop()  # drain=True default
        assert all(p.done for p in pending)
        assert not service.is_running
        for p in pending:
            assert len(p.result()) == 3

    def test_stop_without_drain_leaves_queue(self, tiny_lcrec, tiny_dataset):
        service = RecommendationService(
            LCRecEngine(tiny_lcrec),
            batcher=MicroBatcherConfig(max_batch_size=64),
            deadline_ms=60_000.0,
        )
        service.start()
        pending = service.submit(tiny_dataset.split.test_histories[0], top_k=3)
        service.stop(drain=False)
        assert not pending.done
        assert len(service.queue) == 1
        assert len(pending.result()) == 3  # sync fallback flush still works

    def test_async_results_match_sync_recommend(self, service, tiny_lcrec, tiny_dataset):
        histories = tiny_dataset.split.test_histories[:6]
        service.start()
        pending = [service.submit(h, top_k=5) for h in histories]
        for history, p in zip(histories, pending):
            assert p.result(timeout=10.0) == tiny_lcrec.recommend(list(history), top_k=5)

    def test_concurrent_submitters(self, service, tiny_lcrec, tiny_dataset):
        histories = tiny_dataset.split.test_histories[:8]
        service.start()
        results: dict[int, list[int]] = {}

        def submit_and_wait(index, history):
            results[index] = service.submit(history, top_k=4).result(timeout=10.0)

        threads = [
            threading.Thread(target=submit_and_wait, args=(i, h))
            for i, h in enumerate(histories)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert len(results) == len(histories)
        for index, history in enumerate(histories):
            assert results[index] == tiny_lcrec.recommend(list(history), top_k=4)

    def test_result_timeout_raises(self, tiny_lcrec, tiny_dataset):
        service = RecommendationService(
            LCRecEngine(tiny_lcrec),
            batcher=MicroBatcherConfig(max_batch_size=64),
            deadline_ms=60_000.0,
        )
        service.start()
        try:
            pending = service.submit(tiny_dataset.split.test_histories[0])
            with pytest.raises(TimeoutError):
                pending.result(timeout=0.05)
        finally:
            service.stop()
        assert pending.done  # stop() drained it after all

    def test_context_manager_lifecycle(self, tiny_lcrec, tiny_dataset):
        with tiny_lcrec.service(deadline_ms=40.0) as service:
            assert service.is_running
            pending = service.submit(tiny_dataset.split.test_histories[0], top_k=3)
            assert len(pending.result(timeout=10.0)) == 3
        assert not service.is_running

    def test_start_twice_rejected(self, service):
        service.start()
        with pytest.raises(RuntimeError):
            service.start()

    def test_start_releases_freed_heap_where_the_c_library_can(self, service, monkeypatch):
        """start() hands free heap pages back (glibc) and shrugs elsewhere."""
        import repro.serving.service as service_module

        calls = []

        class Libc:
            def malloc_trim(self, pad):
                calls.append(pad)

        monkeypatch.setattr(service_module.ctypes, "CDLL", lambda name: Libc())
        service.start()
        service.stop()
        assert calls == [0]
        monkeypatch.setattr(service_module.ctypes, "CDLL", lambda name: object())  # no symbol
        service.start()
        assert service.is_running

    def test_stop_idempotent_and_restartable(self, service, tiny_dataset):
        service.start()
        service.stop()
        service.stop()
        service.start()  # a stopped service can be restarted
        pending = service.submit(tiny_dataset.split.test_histories[0], top_k=3)
        assert len(pending.result(timeout=10.0)) == 3

    def test_stop_safe_under_concurrent_callers(self, service):
        """Regression: concurrent stop() calls used to race the worker field.

        Two callers could both pass the ``_worker is None`` check; the
        loser then joined/cleared a dead (or None) thread.  The lifecycle
        lock serializes them: every caller returns cleanly and the service
        is stopped exactly once per start.
        """
        errors: list[BaseException] = []
        for _ in range(10):
            service.start()
            barrier = threading.Barrier(4)

            def stopper():
                try:
                    barrier.wait(timeout=5)
                    service.stop()
                except BaseException as exc:  # noqa: BLE001 - recorded for assert
                    errors.append(exc)

            threads = [threading.Thread(target=stopper) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert not service.is_running
        assert errors == []

    def test_sync_flush_still_works_while_running(self, service, tiny_dataset):
        """Explicit flush() and the background loop may race safely."""
        service.start()
        pending = [service.submit(h, top_k=3) for h in tiny_dataset.split.test_histories[:3]]
        service.flush()
        for p in pending:
            assert len(p.result(timeout=10.0)) == 3

    def test_validation(self, tiny_lcrec):
        with pytest.raises(ValueError):
            RecommendationService(LCRecEngine(tiny_lcrec), deadline_ms=0.0)

    def test_result_never_raises_another_requests_error(
        self, tiny_lcrec, tiny_dataset, monkeypatch
    ):
        """Regression: ``result()`` on a stopped service used to call
        ``flush()``, which re-raises the first error of *any* batch — a
        healthy handle raised its neighbour's error although its own
        ranking had been delivered.  (What a failing batch does to the
        other batches under every driver: the failure-isolation matrix in
        ``test_serving_continuous.py``.)"""
        service = RecommendationService(
            LCRecEngine(tiny_lcrec, prefix_cache=False),
            batcher=MicroBatcherConfig(max_batch_size=1),
        )
        real_prefill = service.engine.prefill

        def flaky(requests):
            if any(request.top_k == 7 for request in requests):
                raise RuntimeError("decode blew up")
            return real_prefill(requests)

        monkeypatch.setattr(service.engine, "prefill", flaky)
        history = list(tiny_dataset.split.test_histories[0])
        bad = service.submit(history, top_k=7)
        good = service.submit(history, top_k=3)
        assert good.result(timeout=10.0) == tiny_lcrec.recommend(history, top_k=3)
        assert bad.done and service.backlog == 0
        with pytest.raises(RuntimeError, match="decode blew up"):
            bad.result()  # its own error still comes through
