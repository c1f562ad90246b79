"""Weight initialisers (all take an explicit ``np.random.Generator``)."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "xavier_uniform", "normal_"]


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """He/Kaiming uniform init for a ``(fan_in, fan_out)`` weight matrix."""
    fan_in = shape[0]
    bound = float(np.sqrt(1.0 / max(fan_in, 1)))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Glorot/Xavier uniform init."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = float(np.sqrt(6.0 / max(fan_in + fan_out, 1)))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def normal_(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Gaussian init with mean 0 and std 0.02 (the transformer-embedding default)."""
    return (rng.standard_normal(shape) * 0.02).astype(np.float32)

