"""Session-affinity routing: which worker should serve this request?

The point of routing by session is the prefix K/V cache: a user's refresh
traffic re-sends a prompt whose long head (template plus the session's
history so far) some worker has already decoded and cached.  Routed to
*that* worker, the request forwards only its unseen suffix; routed
anywhere else it pays the full prompt again — per-worker caches are
deliberately private (no cross-thread locking on the decode hot path), so
placement is what makes them effective.

:class:`AffinityRouter` implements rendezvous (highest-random-weight)
hashing: every (key, worker) pair gets a stable pseudo-random weight, and
a key's affine worker is the argmax.  Two properties matter here:

* **Determinism** — the weight is a keyed BLAKE2b digest, independent of
  ``PYTHONHASHSEED`` and of process restarts, so a session keeps its
  worker across client reconnects and cluster restarts.
* **Stability under resizing** — when a worker is added, a key moves only
  if the *new* worker wins its argmax (an expected ``1/(N+1)`` fraction
  of keys); when a worker is removed, only that worker's keys move.
  Plain ``hash(key) % N`` would reshuffle almost every session on any
  resize, discarding every warm cache in the fleet at once.

The router only names the affine worker.  When that worker is at its
backlog bound, :class:`repro.serving.ServingCluster` spills the request
to the least-loaded worker with room (lowest index on ties), not to the
key's next-ranked worker.

Thread safety: the router is stateless and pure — every method may be
called concurrently from any thread.
"""

from __future__ import annotations

import hashlib

__all__ = ["AffinityRouter", "rendezvous_weight"]


def rendezvous_weight(session_key: str, worker: int) -> int:
    """The stable pseudo-random weight of one (key, worker) pair.

    A keyed 64-bit BLAKE2b digest: uniform enough that argmax placement
    balances keys across workers, deterministic across processes.  The
    NUL separator keeps distinct (key, worker) pairs from colliding via
    string concatenation.
    """
    payload = f"{session_key}\x00{worker}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


class AffinityRouter:
    """Rendezvous-hash placement of session keys onto ``num_workers`` workers."""

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers

    def affine_worker(self, session_key: str) -> int:
        """The worker this key's traffic should land on (the HRW argmax)."""
        return max(
            range(self.num_workers), key=lambda worker: rendezvous_weight(session_key, worker)
        )
