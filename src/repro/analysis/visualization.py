"""Embedding-space integration diagnostics and terminal plots (Fig. 4).

The paper's Fig. 4 is a qualitative PCA scatter: without alignment tuning
the item-index token embeddings form a cluster *separate* from the item
text tokens; with LC-Rec's alignment tasks they mix into the language
space.  We quantify that with a separation score (distance between group
centroids normalised by within-group spread) plus an ASCII scatter for
eyeballing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pca import fit_pca

__all__ = ["SeparationReport", "embedding_separation", "ascii_scatter"]


@dataclass
class SeparationReport:
    """Separation between two embedding groups in PCA space."""

    centroid_distance: float
    within_spread: float

    @property
    def separation(self) -> float:
        """>1 means the groups are further apart than their own spread."""
        return self.centroid_distance / max(self.within_spread, 1e-12)


def embedding_separation(group_a: np.ndarray, group_b: np.ndarray) -> SeparationReport:
    """PCA-project both groups jointly onto two components and measure their separation."""
    stacked = np.concatenate([group_a, group_b], axis=0)
    pca = fit_pca(stacked)
    projected_a = pca.transform(group_a)
    projected_b = pca.transform(group_b)
    centroid_a = projected_a.mean(axis=0)
    centroid_b = projected_b.mean(axis=0)
    distance = float(np.linalg.norm(centroid_a - centroid_b))
    spread_a = float(np.linalg.norm(projected_a - centroid_a, axis=1).mean())
    spread_b = float(np.linalg.norm(projected_b - centroid_b, axis=1).mean())
    return SeparationReport(
        centroid_distance=distance,
        within_spread=0.5 * (spread_a + spread_b),
    )


def ascii_scatter(groups: dict[str, np.ndarray], width: int = 60, height: int = 20) -> str:
    """Render 2-D point groups as a text scatter plot.

    Each group gets the first letter of its name as the marker; overlapping
    cells show ``*``.
    """
    if not groups:
        raise ValueError("no groups to plot")
    all_points = np.concatenate(list(groups.values()), axis=0)
    if all_points.shape[1] != 2:
        raise ValueError("points must be 2-D (run PCA first)")
    x_min, y_min = all_points.min(axis=0)
    x_max, y_max = all_points.max(axis=0)
    x_span = max(x_max - x_min, 1e-9)
    y_span = max(y_max - y_min, 1e-9)
    canvas = [[" "] * width for _ in range(height)]
    for name, points in groups.items():
        marker = name[0]
        for x, y in points:
            col = int((x - x_min) / x_span * (width - 1))
            row = int((1.0 - (y - y_min) / y_span) * (height - 1))
            cell = canvas[row][col]
            canvas[row][col] = marker if cell in (" ", marker) else "*"
    legend = "  ".join(f"{name[0]}={name}" for name in groups)
    return "\n".join("".join(row) for row in canvas) + "\n" + legend
