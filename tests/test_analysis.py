"""Tests for PCA, separation diagnostics and index-semantics reports."""

import numpy as np
import pytest

from repro.analysis import (
    PrefixGeneration,
    ascii_scatter,
    count_level_changes,
    embedding_separation,
    fit_pca,
)


class TestPCA:
    def test_projects_to_requested_dims(self, rng):
        x = rng.standard_normal((30, 10))
        pca = fit_pca(x)
        assert pca.transform(x).shape == (30, 2)

    def test_first_component_captures_dominant_axis(self, rng):
        base = rng.standard_normal((100, 1)) * np.array([[10.0]])
        noise = rng.standard_normal((100, 4)) * 0.1
        x = np.concatenate([base, noise], axis=1)
        pca = fit_pca(x)
        assert abs(pca.components[0, 0]) > 0.99

    def test_explained_variance_sorted(self, rng):
        x = rng.standard_normal((50, 6))
        pca = fit_pca(x)
        ev = pca.explained_variance
        assert all(ev[i] >= ev[i + 1] for i in range(len(ev) - 1))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            fit_pca(rng.standard_normal(5))
        with pytest.raises(ValueError):
            fit_pca(rng.standard_normal((3, 1)))

    def test_transform_centers_data(self, rng):
        x = rng.standard_normal((40, 5)) + 100.0
        pca = fit_pca(x)
        projected = pca.transform(x)
        np.testing.assert_allclose(projected.mean(axis=0), 0.0, atol=1e-8)


class TestSeparation:
    def test_separated_groups_score_high(self, rng):
        group_a = rng.standard_normal((40, 8)) + 10.0
        group_b = rng.standard_normal((40, 8)) - 10.0
        report = embedding_separation(group_a, group_b)
        assert report.separation > 3.0

    def test_mixed_groups_score_low(self, rng):
        group_a = rng.standard_normal((40, 8))
        group_b = rng.standard_normal((40, 8))
        report = embedding_separation(group_a, group_b)
        assert report.separation < 1.0


class TestAsciiScatter:
    def test_renders_markers_and_legend(self, rng):
        groups = {
            "indices": rng.standard_normal((10, 2)),
            "texts": rng.standard_normal((10, 2)) + 5,
        }
        plot = ascii_scatter(groups, width=30, height=10)
        assert "i" in plot and "t" in plot
        assert "i=indices" in plot

    def test_rejects_empty_or_not_2d(self, rng):
        with pytest.raises(ValueError):
            ascii_scatter({})
        with pytest.raises(ValueError):
            ascii_scatter({"x": rng.standard_normal((5, 3))})


class TestLevelChanges:
    def make_generations(self):
        return [
            PrefixGeneration(0, "t0", ["a", "b", "b", "b"]),  # change 1->2
            PrefixGeneration(1, "t1", ["a", "a", "b", "b"]),  # change 2->3
            PrefixGeneration(2, "t2", ["a", "a", "a", "a"]),  # no change
        ]

    def test_counts(self):
        report = count_level_changes(self.make_generations())
        assert report.transitions == ["1->2", "2->3", "3->4"]
        assert report.change_counts == [1, 1, 0]

    def test_proportions(self):
        report = count_level_changes(self.make_generations())
        assert report.change_proportions == pytest.approx([1 / 3, 1 / 3, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            count_level_changes([])
        with pytest.raises(ValueError):
            count_level_changes([PrefixGeneration(0, "t", ["only-one"])])
