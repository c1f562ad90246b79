"""Recurrent layers: a gated recurrent unit for the GRU4Rec baseline."""

from __future__ import annotations

import numpy as np

from .init import xavier_uniform
from .nn import Module
from .tensor import Parameter, Tensor, stack

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """A single GRU step.

    Gates follow Cho et al. (2014): reset ``r``, update ``z`` and candidate
    ``n`` computed from the input and previous hidden state.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_input = Parameter(xavier_uniform(rng, (input_dim, 3 * hidden_dim)))
        self.w_hidden = Parameter(xavier_uniform(rng, (hidden_dim, 3 * hidden_dim)))
        self.b_input = Parameter(np.zeros(3 * hidden_dim, dtype=np.float32))
        self.b_hidden = Parameter(np.zeros(3 * hidden_dim, dtype=np.float32))

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        gates_x = x @ self.w_input + self.b_input
        gates_h = hidden @ self.w_hidden + self.b_hidden
        d = self.hidden_dim
        r = (gates_x[:, :d] + gates_h[:, :d]).sigmoid()
        z = (gates_x[:, d : 2 * d] + gates_h[:, d : 2 * d]).sigmoid()
        n = (gates_x[:, 2 * d :] + r * gates_h[:, 2 * d :]).tanh()
        return (1.0 - z) * n + z * hidden


class GRU(Module):
    """Unidirectional one-layer GRU over a ``(batch, time, dim)`` input."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.hidden_dim = hidden_dim
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng or np.random.default_rng(0))

    def forward(self, x: Tensor) -> Tensor:
        """Return the hidden state sequence ``(B, T, D)``."""
        batch, seq_len, _ = x.shape
        hidden = Tensor(np.zeros((batch, self.hidden_dim), dtype=np.float32))
        outputs = []
        for t in range(seq_len):
            hidden = self.cell(x[:, t, :], hidden)
            outputs.append(hidden)
        return stack(outputs, axis=1)
