"""The generator sees a reply when it arrives, whatever order replies come in."""

import threading

from loadgen import Request, run_phase


class _Handle:
    def __init__(self, request_id, delay_s):
        self.request_id = request_id
        self.degraded = False
        self._event = threading.Event()
        threading.Timer(delay_s, self._event.set).start()

    @property
    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        if not self._event.wait(timeout):
            raise TimeoutError
        return [self.request_id]


class _NewestFirst:
    """Serves a wave in reverse: the first request submitted resolves last."""

    def __init__(self, wave):
        self.wave = wave
        self.in_flight = []
        self.most_in_flight = 0
        self.submitted = 0

    def submit(self, history, top_k, session_key=None):
        position = self.submitted % self.wave
        self.submitted += 1
        handle = _Handle(self.submitted, 0.02 * (self.wave - position))
        self.in_flight = [h for h in self.in_flight if not h.done] + [handle]
        self.most_in_flight = max(self.most_in_flight, len(self.in_flight))
        return handle


def _phase(client, clients, quota, epochs=2):
    traffic = [[Request((1, 2, 3))] * quota for _ in range(epochs)]
    return run_phase(client, traffic, clients, 10, probe_ms=lambda: 10.0)


def test_barrier_wave_latencies_follow_delivery_order():
    phase = _phase(_NewestFirst(4), clients=4, quota=4)
    assert not phase.gave_up and len(phase.epochs) == 2 and len(phase.requests) == 8
    for epoch in range(2):
        latencies = [phase.latency_nms(r) for r in phase.requests if r.epoch == epoch]
        # Submitted first, served last: 80, 60, 40, 20 ms (probe 10 ms: nms == ms).
        assert latencies == sorted(latencies, reverse=True)
        assert 15.0 < latencies[-1] < 40.0 and 75.0 < latencies[0] < 110.0
    assert all(r.ranking == [r.request_id] and r.error is None for r in phase.requests)


def test_window_is_never_exceeded_and_quota_is_issued():
    client = _NewestFirst(3)
    phase = _phase(client, clients=3, quota=7, epochs=1)
    assert client.submitted == 7 and len(phase.requests) == 7
    assert client.most_in_flight <= 3


def test_giving_up_marks_the_phase():
    traffic = [[Request((1,))] * 2 for _ in range(50)]
    phase = run_phase(_NewestFirst(2), traffic, 2, 10, probe_ms=lambda: 10.0, give_up_after_s=0.1)
    assert phase.gave_up and 0 < len(phase.epochs) < 50
