"""Thread placement, so that the probe measures the CPU the decode runs on.

On this host each vCPU flips between a fast and a slow state (one
``refstep`` takes a third longer in the slow one), staying in a state
for anything from milliseconds to minutes, and an otherwise idle host's
two vCPUs flip independently (correlation 0.04).  A probe taken on the
generator's CPU therefore says nothing about the CPU the decode thread is
on, and dividing by it adds noise instead of removing it (measured:
spread of normalised throughput over ten fresh processes 8.8 % unpinned,
2.3 % pinned; raw 8.7 %).  So the harness pins each decode thread to one
CPU, keeps the generator off it when a CPU is left over, and takes every
probe on the decode threads' CPUs.  The served system is untouched: this
is what ``taskset`` would do, applied per thread.

Where ``os.sched_setaffinity`` does not exist nothing is pinned and the
probe runs wherever the generator thread happens to be.
"""

from __future__ import annotations

import os
import threading

from refstep import RefStep

__all__ = ["start_pinned", "HostProbe"]

_CAN_PIN = hasattr(os, "sched_setaffinity")
# The CPUs this process may use, read before anything narrows the mask.
_ALLOWED = sorted(os.sched_getaffinity(0)) if _CAN_PIN else []


def start_pinned(client) -> tuple[list[threading.Thread], list[int]]:
    """Start ``client`` and pin the threads it spawns, one CPU each.

    Returns the decode threads and their CPUs (no CPUs when pinning is
    unavailable).  The calling (generator) thread is moved to the CPUs no
    decode thread got; with none left over it may run anywhere.
    """
    before = set(threading.enumerate())
    client.start()
    spawned = [thread for thread in threading.enumerate() if thread not in before]
    if not _CAN_PIN:
        return spawned, []
    decode_cpus = []
    for index, thread in enumerate(spawned):
        cpu = _ALLOWED[index % len(_ALLOWED)]
        os.sched_setaffinity(thread.native_id, {cpu})
        decode_cpus.append(cpu)
    leftover = set(_ALLOWED) - set(decode_cpus)
    os.sched_setaffinity(0, leftover or set(_ALLOWED))
    return spawned, decode_cpus


class HostProbe:
    """One ``refstep`` on each decode CPU; the mean over CPUs, in ms.

    One step, not the best of several: the states flip faster than an
    epoch, so what a run's median needs is many independent samples of
    the share of time spent slow, and a minimum would hide that share.
    """

    def __init__(self, refstep: RefStep, decode_cpus: list[int]):
        self._refstep = refstep
        self._cpus = decode_cpus

    def __call__(self) -> float:
        if not self._cpus:
            return self._refstep.probe()
        home = os.sched_getaffinity(0)
        total = 0.0
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                total += self._refstep.probe()
        finally:
            os.sched_setaffinity(0, home)
        return total / len(self._cpus)
