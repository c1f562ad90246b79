"""Caser (Tang & Wang 2018): convolutional sequence embedding.

Horizontal convolutions capture union-level sequential patterns over
windows of 2-4 recent items; the vertical convolution learns a weighted
aggregation over time.  Both are expressed with windowed slicing and
matmuls on the autodiff engine (no dedicated conv kernel needed at this
scale).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Dropout, Linear, Parameter, Tensor, concat, stack
from ..tensor.init import xavier_uniform
from .base import SequentialRecommender

__all__ = ["Caser"]

# Horizontal filters per window height, the window heights, vertical
# filters, and dropout before the fully connected layer.
_HORIZONTAL_FILTERS = 8
_FILTER_HEIGHTS = (2, 3, 4)
_VERTICAL_FILTERS = 4
_DROPOUT = 0.2


class Caser(SequentialRecommender):
    """CNN over the embedded history window; pointwise training."""

    name = "Caser"
    training_mode = "pointwise"

    def __init__(
        self,
        num_items: int,
        dim: int = 64,
        max_len: int = 20,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        super().__init__(num_items, dim, max_len, rng)
        # One weight (height * dim, filters) matrix per filter height.
        self._h_weights = []
        for index, height in enumerate(_FILTER_HEIGHTS):
            weight = Parameter(xavier_uniform(rng, (height * dim, _HORIZONTAL_FILTERS)))
            setattr(self, f"h_weight_{index}", weight)
            self._h_weights.append(weight)
        # Vertical convolution: a (max_len, vertical filters) mixing matrix.
        self.v_weight = Parameter(xavier_uniform(rng, (max_len, _VERTICAL_FILTERS)))
        conv_out = len(_FILTER_HEIGHTS) * _HORIZONTAL_FILTERS + _VERTICAL_FILTERS * dim
        self.fc = Linear(conv_out, dim, rng=rng)
        self.dropout = Dropout(_DROPOUT, rng=rng)

    def user_representation(self, padded: np.ndarray, lengths: np.ndarray) -> Tensor:
        del lengths  # Caser always consumes the fixed-size window.
        x = self.item_embeddings(padded)  # (B, L, d)
        batch, seq_len, dim = x.shape

        horizontal_outputs = []
        for height, weight in zip(_FILTER_HEIGHTS, self._h_weights):
            if height > seq_len:
                continue
            windows = stack(
                [
                    x[:, t : t + height, :].reshape(batch, height * dim)
                    for t in range(seq_len - height + 1)
                ],
                axis=1,
            )  # (B, W, height*d)
            activation = (windows @ weight).relu()  # (B, W, F)
            horizontal_outputs.append(activation.max(axis=1))

        # Vertical: mix over the time axis per embedding dimension.
        vertical = x.transpose(0, 2, 1) @ self.v_weight  # (B, d, Fv)
        vertical = vertical.reshape(batch, dim * _VERTICAL_FILTERS)

        features = concat(horizontal_outputs + [vertical], axis=1)
        return self.fc(self.dropout(features)).relu()
