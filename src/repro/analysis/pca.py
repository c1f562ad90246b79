"""Principal component analysis via SVD (for Fig. 4's 2-D projections)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PCA", "fit_pca"]

_N_COMPONENTS = 2


@dataclass
class PCA:
    """A fitted PCA projection."""

    mean: np.ndarray
    components: np.ndarray          # (n_components, dim)
    explained_variance: np.ndarray  # (n_components,)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return (x - self.mean) @ self.components.T


def fit_pca(x: np.ndarray) -> PCA:
    """Fit a 2-component PCA by singular value decomposition of the centred data."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    n, dim = x.shape
    if min(n, dim) < _N_COMPONENTS:
        raise ValueError(f"need at least {_N_COMPONENTS} rows and columns for a 2-D projection")
    mean = x.mean(axis=0)
    centred = x - mean
    _, singular_values, v_t = np.linalg.svd(centred, full_matrices=False)
    components = v_t[:_N_COMPONENTS]
    explained = (singular_values[:_N_COMPONENTS] ** 2) / max(n - 1, 1)
    return PCA(mean=mean, components=components, explained_variance=explained)
