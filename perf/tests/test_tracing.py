"""Span recorder: nesting, self time, threads, patch/restore."""

import threading
import time

from tracing import Recorder


class _Layer:
    def outer(self, naps):
        time.sleep(0.002)
        for _ in range(naps):
            self.inner()
        return naps

    def inner(self):
        time.sleep(0.003)


def _patched():
    recorder = Recorder()
    recorder.wrap(_Layer, "outer", "layer.outer", lambda args, kwargs, result, pre: {"naps": result})
    recorder.wrap(_Layer, "inner", "layer.inner")
    return recorder


def test_nested_spans_have_parents_and_self_time():
    recorder = _patched()
    try:
        recorder.epoch = 7
        _Layer().outer(2)
    finally:
        recorder.uninstall()
    outer = [s for s in recorder.spans if s.name == "layer.outer"]
    inner = [s for s in recorder.spans if s.name == "layer.inner"]
    assert len(outer) == 1 and len(inner) == 2
    assert outer[0].parent == -1 and outer[0].attrs == {"naps": 2} and outer[0].epoch == 7
    assert all(s.parent == outer[0].id for s in inner)
    self_time = recorder.self_times()
    covered = sum(s.duration for s in inner)
    assert abs(self_time[outer[0].id] - (outer[0].duration - covered)) < 1e-9
    assert 0.0015 < self_time[outer[0].id] < outer[0].duration - 0.005
    assert all(self_time[s.id] == s.duration for s in inner)


def test_threads_keep_separate_stacks():
    recorder = _patched()
    try:
        threads = [threading.Thread(target=_Layer().outer, args=(1,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        recorder.uninstall()
    by_id = {s.id: s for s in recorder.spans}
    assert len({s.thread for s in recorder.spans}) == 2
    for span in recorder.spans:
        if span.name == "layer.inner":
            assert by_id[span.parent].thread == span.thread  # never adopted across threads
    assert sorted(by_id) == list(range(4))  # ids unique under concurrent allocation


def test_uninstall_restores_class_and_instance_attributes():
    original = _Layer.__dict__["outer"]
    layer = _Layer()
    recorder = _patched()
    recorder.wrap(layer, "inner", "layer.instance_inner")
    assert "inner" in layer.__dict__
    recorder.uninstall()
    assert _Layer.__dict__["outer"] is original
    assert "inner" not in layer.__dict__
    layer.outer(1)
    assert [s.name for s in recorder.spans] == []


def test_failed_call_still_closes_its_span():
    class Boom:
        def go(self):
            raise ValueError("no")

    recorder = Recorder()
    recorder.wrap(Boom, "go", "boom.go", lambda args, kwargs, result, pre: {"never": 1})
    try:
        try:
            Boom().go()
        except ValueError:
            pass
        recorder.wrap(Boom, "go", "boom.again")  # a later span must not inherit a stale parent
    finally:
        recorder.uninstall()
    assert [(s.name, s.parent, s.attrs) for s in recorder.spans] == [("boom.go", -1, None)]
