"""Sinkhorn-Knopp optimal transport for uniform semantic mapping.

The paper (Eq. 6) casts conflict-free last-level code assignment as an
optimal transport problem: map residual vectors to codebook entries so
that every residual gets exactly one code and the codes are used uniformly
(each code receives ``|B| / K`` residuals).  The entropic relaxation is
solved with the Sinkhorn-Knopp algorithm (Cuturi 2013), then rounded to a
hard, capacity-respecting assignment.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sinkhorn_knopp", "uniform_assign"]

_EPSILON = 0.05  # entropic regularisation strength (smaller = closer to hard OT)


def sinkhorn_knopp(cost: np.ndarray, num_iters: int = 100) -> np.ndarray:
    """Solve the entropic OT problem with uniform marginals.

    Parameters
    ----------
    cost:
        ``(n, k)`` non-negative transport costs (squared distances).
    num_iters:
        Maximum row/column scaling iterations; they stop early once every
        column sum is within ``1e-6`` of ``1/k``.

    Returns
    -------
    ``(n, k)`` transport plan ``Q`` with rows summing to ``1/n`` and columns
    to ``1/k``.
    """
    if cost.ndim != 2:
        raise ValueError("cost must be 2-D")
    n, k = cost.shape
    if n == 0 or k == 0:
        raise ValueError("cost must be non-empty")
    # Log-domain scaling for numerical stability.
    log_q = -cost / _EPSILON
    log_q -= log_q.max()
    log_row_target = -np.log(n)
    log_col_target = -np.log(k)
    for _ in range(num_iters):
        # Normalise columns to 1/k.
        log_col = _logsumexp(log_q, axis=0)
        log_q += log_col_target - log_col[None, :]
        # Normalise rows to 1/n.
        log_row = _logsumexp(log_q, axis=1)
        log_q += log_row_target - log_row[:, None]
        col_err = np.abs(np.exp(_logsumexp(log_q, axis=0)) - 1.0 / k).max()
        if col_err < 1e-6:
            break
    return np.exp(log_q)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - m).sum(axis=axis)) + np.squeeze(m, axis=axis)
    return out


def uniform_assign(cost: np.ndarray, capacity: int | None = None) -> np.ndarray:
    """Hard assignment of each row to one column with per-column capacity.

    Runs Sinkhorn to get soft transport probabilities, then rounds greedily
    in order of decreasing confidence while respecting ``capacity`` (default
    ``ceil(n / k)`` — the uniform quota of Eq. 6).

    Returns an ``(n,)`` integer array of column assignments.
    """
    n, k = cost.shape
    if capacity is None:
        capacity = int(np.ceil(n / k))
    if capacity * k < n:
        raise ValueError(f"capacity {capacity} x {k} columns < {n} rows")
    plan = sinkhorn_knopp(cost)

    assignment = np.full(n, -1, dtype=np.int64)
    remaining = np.full(k, capacity, dtype=np.int64)
    # Greedy rounding: visit (row, col) pairs by decreasing plan weight.
    order = np.argsort(-plan, axis=None)
    assigned = 0
    for flat in order:
        row, col = divmod(int(flat), k)
        if assignment[row] != -1 or remaining[col] == 0:
            continue
        assignment[row] = col
        remaining[col] -= 1
        assigned += 1
        if assigned == n:
            break
    return assignment
