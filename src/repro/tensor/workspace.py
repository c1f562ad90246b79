"""Preallocated scratch buffers for the decode hot path.

A batched decode step runs the same handful of array shapes every
iteration — the fused QKV projection, the beam-attention score block, the
candidate-logit GEMM — and allocating them anew each step makes memory
churn, not math, a visible cost at serving batch sizes.
:class:`StepWorkspace` keeps one float32 buffer per ``(name, shape)`` and
hands it back on every request, so a steady-state decode performs zero
step-scoped allocations: the first step of a decode sizes each buffer and
later steps reuse it (a shape that legitimately changes — the attention
key width grows by one column per trie level — simply materialises one
buffer per distinct shape, bounded by the trie depth).

Buffers are returned *uninitialised* (possibly holding a previous step's
values): callers must fully overwrite them, typically via ``out=`` on
``np.matmul`` or whole-array assignment.  A workspace belongs to exactly
one decode state and is not thread-safe; the serving layer's decode lock
already guarantees single-threaded stepping.  ``clear()`` drops every
buffer — decode states call it when their width changes and at
finish, which is what keeps a finished cohort from pinning peak-width
scratch memory.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["StepWorkspace", "WeightMemo"]


class StepWorkspace:
    """Shape-keyed scratch buffers reused across decode steps."""

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A reusable float32 buffer of exactly ``shape`` for ``name``.

        Contents are unspecified — the caller must overwrite every element
        before reading.  The same ``(name, shape)`` always returns the same
        array object until :meth:`clear`.
        """
        key = (name, shape)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=np.float32)
            self._buffers[key] = buffer
        return buffer

    def clear(self) -> None:
        """Drop every buffer (row count changed, or the decode finished)."""
        self._buffers.clear()

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (for tests and diagnostics)."""
        return sum(buffer.nbytes for buffer in self._buffers.values())


class WeightMemo:
    """Derived-weight cache validated by array identity and grad freshness.

    The optimizers in this repo update parameter arrays *in place*, so
    caching anything computed from weights — gathered output-head columns,
    a fused QKV concatenation — must guard against silent staleness.  An
    entry is served only while every source array is the identical object
    **and** none of the governing parameters carries a gradient: a present
    gradient means a backward pass ran, after which an in-place optimizer
    step may have changed the data behind the same array object.  Owners
    additionally :meth:`clear` the memo on ``train()``/``eval()``
    transitions (every training loop in the repo brackets itself with
    them), which covers loops that end with zeroed gradients — as the
    repo's language-model loops do on purpose: a model served with its
    last step's gradients still attached would rebuild every derived
    weight on every decode forward.

    Holding the source arrays in each entry keeps them alive, so a key
    built from their ``id()``s can never collide with a recycled object.
    """

    __slots__ = ("_entries", "max_entries")

    def __init__(self, max_entries: int = 64) -> None:
        self._entries: dict[tuple[int, ...], tuple[tuple, np.ndarray]] = {}
        self.max_entries = max_entries

    def get(
        self,
        sources: tuple,
        params: Sequence,
        build: Callable[[], np.ndarray],
    ) -> np.ndarray:
        """The memoized (or freshly ``build()``-ed) derived array.

        ``sources`` are the arrays whose identities validate an entry
        (candidate-id arrays, parameter ``.data`` arrays); ``params`` are
        the :class:`~repro.tensor.Parameter` objects whose gradients gate
        caching.  ``build`` computes the derived array on a miss.
        """
        fresh = all(param.grad is None for param in params)
        key = tuple(id(source) for source in sources)
        cached = self._entries.get(key)
        if (
            fresh
            and cached is not None
            and all(held is source for held, source in zip(cached[0], sources))
        ):
            return cached[1]
        value = build()
        if fresh:
            if len(self._entries) >= self.max_entries:
                self._entries.clear()
            self._entries[key] = (sources, value)
        return value

    def clear(self) -> None:
        self._entries.clear()
