"""The closed-loop load generator: one thread, two parameters.

An *epoch* issues ``quota`` requests on behalf of ``clients`` callers:
each caller submits, waits for its reply and submits again until the
quota is issued; then the window drains.  ``clients == quota`` is a
barrier wave.  The loop is closed because the callers modelled here wait
for their reply, and because on a host whose speed moves by a quarter a
wall-clock schedule cannot hold utilisation constant.  The number of
epochs is fixed, not the duration, so the work is identical run to run
(and so is every count that does not hang on a race between threads).

Each epoch is bracketed by two host probes (``refstep`` on the decode
threads' CPUs, see pinning.py); every time measured inside it is divided
by their mean (``nms``, see ``refstep.REF_MS``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

from refstep import REF_MS

__all__ = ["Request", "RequestRecord", "IngestRecord", "Epoch", "Phase", "run_phase"]

_RESULT_TIMEOUT_S = 120.0  # per epoch; what is still outstanding then has failed
_POLL_S = 0.002


@dataclass(frozen=True)
class Request:
    history: tuple[int, ...]
    session_key: str | None = None


@dataclass
class RequestRecord:
    request: Request
    epoch: int
    request_id: int
    submit_start: float
    submit_end: float
    observed: float = 0.0
    ranking: list[int] | None = None
    degraded: bool = False
    error: str | None = None


@dataclass
class IngestRecord:
    epoch: int  # ingested before this epoch started
    start: float
    end: float
    probe_ms: float
    item_id: int | None  # None when the ingest raised

    @property
    def nms(self) -> float:
        return (self.end - self.start) * 1000.0 * REF_MS / self.probe_ms


@dataclass
class Epoch:
    index: int
    start: float
    end: float
    probe_ms: float  # mean of the two bracketing probes
    busy_s: float  # CPU time the decode threads used inside the epoch

    @property
    def scale(self) -> float:
        """Multiply wall seconds inside this epoch by this to get nms."""
        return 1000.0 * REF_MS / self.probe_ms

    @property
    def nms(self) -> float:
        return (self.end - self.start) * self.scale


@dataclass
class Phase:
    epochs: list[Epoch] = field(default_factory=list)
    requests: list[RequestRecord] = field(default_factory=list)
    ingests: list[IngestRecord] = field(default_factory=list)
    probes_ms: list[float] = field(default_factory=list)
    gave_up: bool = False  # stopped before the last epoch: the sample is short

    def latency_nms(self, record: RequestRecord) -> float:
        return (record.observed - record.submit_start) * self.epochs[record.epoch].scale


def _collect(record: RequestRecord, handle, now: float) -> None:
    """Record the outcome of a handle that has resolved."""
    record.observed = now
    try:
        record.ranking = handle.result(timeout=0)
    except Exception as error:  # the benchmark boundary: count it, keep going
        record.error = f"{type(error).__name__}: {error}"
    record.degraded = bool(handle.degraded)


def _run_epoch(client, requests, clients: int, top_k: int, epoch: int, out: list) -> None:
    """``clients`` callers, each resubmitting as soon as its reply is seen.

    The generator blocks on the oldest outstanding handle for at most
    ``_POLL_S`` at a time and then stamps every handle that has resolved,
    so a reply is observed within ``_POLL_S`` of its delivery whichever
    order the system serves requests in.
    """
    upcoming = iter(requests)
    window: list[tuple[RequestRecord, object]] = []
    deadline = time.perf_counter() + _RESULT_TIMEOUT_S
    while True:
        for request in itertools.islice(upcoming, clients - len(window)):
            start = time.perf_counter()
            handle = client.submit(
                list(request.history), top_k=top_k, session_key=request.session_key
            )
            record = RequestRecord(request, epoch, handle.request_id, start, time.perf_counter())
            out.append(record)
            window.append((record, handle))
        if not window:
            return
        try:
            window[0][1].result(timeout=_POLL_S)
        except Exception:  # not yet served, or served with an error: _collect reads it
            pass
        now = time.perf_counter()
        waiting = []
        for record, handle in window:
            if handle.done:
                _collect(record, handle, now)
            elif now > deadline:
                record.observed = now
                record.error = f"TimeoutError: not served within {_RESULT_TIMEOUT_S} s"
            else:
                waiting.append((record, handle))
        window = waiting


def run_phase(
    client,
    traffic: list[list[Request]],
    clients: int,
    top_k: int,
    probe_ms: Callable[[], float],
    decode_threads: list = (),
    ingests: dict[int, list[str]] | None = None,
    recorder=None,
    give_up_after_s: float = float("inf"),
) -> Phase:
    """Run every epoch of ``traffic`` against a started client.

    ``ingests[e]`` are item texts to ingest, one probe-bracketed call
    each, before epoch ``e`` starts (the system is drained then, so every
    request of an epoch is served at one catalog version).

    ``give_up_after_s`` stops issuing epochs once the phase has run that
    long and marks the phase ``gave_up``, which fails the run: a host
    several times slower than the one the epoch counts were sized on must
    end inside the driver's time limit, but a short sample is not the
    sample the metrics are defined on.
    """
    clocks = [time.pthread_getcpuclockid(thread.ident) for thread in decode_threads]

    def busy() -> float:
        return sum(time.clock_gettime(clock) for clock in clocks)

    phase = Phase()
    began = time.perf_counter()
    probe = probe_ms()
    phase.probes_ms.append(probe)
    for index, requests in enumerate(traffic):
        if time.perf_counter() - began > give_up_after_s:
            phase.gave_up = True
            break
        if recorder is not None:
            recorder.epoch = index
        for text in (ingests or {}).get(index, ()):
            start = time.perf_counter()
            try:
                item_id = client.ingest_item(text=text).item_id
            except Exception:  # counted as a failed operation
                item_id = None
            end = time.perf_counter()
            before, probe = probe, probe_ms()
            phase.probes_ms.append(probe)
            phase.ingests.append(IngestRecord(index, start, end, (before + probe) / 2.0, item_id))
        busy_before = busy()
        start = time.perf_counter()
        _run_epoch(client, requests, clients, top_k, index, phase.requests)
        end = time.perf_counter()
        busy_s = busy() - busy_before
        before, probe = probe, probe_ms()
        phase.probes_ms.append(probe)
        phase.epochs.append(Epoch(index, start, end, (before + probe) / 2.0, busy_s))
    return phase
