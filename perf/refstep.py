"""``refstep``: the frozen host-speed probe every timing is divided by.

One call runs a fixed numpy miniature of an LC-Rec decode step — four
layers of [fused-QKV GEMM 160x128 . 128x384 -> batched attention over
8 requests x 8 heads x 20 beams x 70 keys x 16 -> softmax -> 128x128
projection -> 128->352->128 gated FFN -> 8000-iteration dict loop] — and
returns how long it took.  The mix matters: the served decode is part
small-GEMM, part memory-bound batched attention, part interpreter, and
this host slows those by different amounts when the sibling CPU is busy
(measured: interpreter loop +32 %, GEMM +20 %, softmax +11 %, a decode
wave +21 %), so a probe with another mix tracks the decode's wall time
worse.  The loop length gives the interpreter about two fifths of the
step, the share at which the probe followed all four workloads best
(see README, "Normalisation").

This file is *frozen*: changing a shape, the layer count or the loop
length re-bases every recorded number.  It imports nothing from ``repro``
so no change to the system under test can move the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REF_MS", "RefStep"]

# Normalised time is "milliseconds on a host where refstep takes REF_MS".
REF_MS = 10.0

_LAYERS = 4
_REQUESTS, _HEADS, _BEAMS, _KEYS, _HEAD_DIM = 8, 8, 20, 70, 16
_DIM = _HEADS * _HEAD_DIM  # 128
_ROWS = _REQUESTS * _BEAMS  # 160
_FFN = 352
_LOOP = 8000
_TABLE = 2100  # lcm(300, 7): every (i % 300, i % 7) pair


class RefStep:
    """Owns the probe's fixed operands; ``probe()`` times one step."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)

        def weights(*shape: int) -> np.ndarray:
            return (rng.standard_normal(shape) * 0.05).astype(np.float32)

        self._x = weights(_ROWS, _DIM)
        self._qkv = weights(_DIM, 3 * _DIM)
        self._proj = weights(_DIM, _DIM)
        self._gate = weights(_DIM, _FFN)
        self._up = weights(_DIM, _FFN)
        self._down = weights(_FFN, _DIM)
        self._keys = weights(_REQUESTS, _HEADS, _KEYS, _HEAD_DIM)
        self._values = weights(_REQUESTS, _HEADS, _KEYS, _HEAD_DIM)
        self._table = {(i % 300, i % 7): i for i in range(_TABLE)}

    def step(self) -> float:
        """Run the fixed work once; the checksum keeps it from being skipped."""
        x = self._x
        table = self._table
        total = 0
        for _ in range(_LAYERS):
            qkv = x @ self._qkv
            q = qkv[:, :_DIM].reshape(_REQUESTS, _BEAMS, _HEADS, _HEAD_DIM).transpose(0, 2, 1, 3)
            scores = np.matmul(q, self._keys.transpose(0, 1, 3, 2)) * 0.25
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            context = np.matmul(scores, self._values).transpose(0, 2, 1, 3).reshape(_ROWS, _DIM)
            x = x + context @ self._proj
            gate = x @ self._gate
            x = x + ((gate / (1.0 + np.exp(-gate))) * (x @ self._up)) @ self._down
            for i in range(_LOOP):
                total += table[(i % 300, i % 7)]
        return float(x[0, 0]) + total

    def probe(self) -> float:
        """Milliseconds one step took just now."""
        start = time.perf_counter()
        self.step()
        return (time.perf_counter() - start) * 1000.0
