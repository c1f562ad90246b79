"""Principal component analysis via SVD (for Fig. 4's 2-D projections)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PCA", "fit_pca"]


@dataclass
class PCA:
    """A fitted PCA projection."""

    mean: np.ndarray
    components: np.ndarray          # (n_components, dim)
    explained_variance: np.ndarray  # (n_components,)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return (x - self.mean) @ self.components.T


def fit_pca(x: np.ndarray, n_components: int = 2) -> PCA:
    """Fit PCA by singular value decomposition of the centred data."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    n, dim = x.shape
    if n_components > min(n, dim):
        raise ValueError("n_components larger than data rank bound")
    mean = x.mean(axis=0)
    centred = x - mean
    _, singular_values, v_t = np.linalg.svd(centred, full_matrices=False)
    components = v_t[:n_components]
    explained = (singular_values[:n_components] ** 2) / max(n - 1, 1)
    return PCA(mean=mean, components=components, explained_variance=explained)
