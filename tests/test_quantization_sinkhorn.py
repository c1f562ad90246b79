"""Tests for the Sinkhorn-Knopp solver and uniform assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.quantization import sinkhorn_knopp, uniform_assign


class TestSinkhornKnopp:
    def test_marginals_uniform(self):
        rng = np.random.default_rng(0)
        cost = rng.random((12, 4))
        plan = sinkhorn_knopp(cost, num_iters=300)
        np.testing.assert_allclose(plan.sum(axis=1), 1 / 12, atol=1e-4)
        np.testing.assert_allclose(plan.sum(axis=0), 1 / 4, atol=1e-3)

    def test_low_epsilon_prefers_cheap_cells(self):
        cost = np.array([[0.0, 10.0], [10.0, 0.0]])
        plan = sinkhorn_knopp(cost)
        assert plan[0, 0] > plan[0, 1]
        assert plan[1, 1] > plan[1, 0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            sinkhorn_knopp(np.zeros(3))
        with pytest.raises(ValueError):
            sinkhorn_knopp(np.zeros((0, 3)))

    def test_handles_large_costs(self):
        cost = np.full((6, 3), 1e6)
        plan = sinkhorn_knopp(cost)
        assert np.isfinite(plan).all()

    @given(arrays(np.float64, (8, 4),
                  elements=st.floats(0, 100, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_plan_is_distribution(self, cost):
        plan = sinkhorn_knopp(cost, num_iters=200)
        assert (plan >= 0).all()
        np.testing.assert_allclose(plan.sum(), 1.0, atol=1e-3)


class TestUniformAssign:
    def test_capacity_one_gives_permutation(self):
        rng = np.random.default_rng(1)
        cost = rng.random((5, 5))
        assignment = uniform_assign(cost, capacity=1)
        assert sorted(assignment.tolist()) == list(range(5))

    def test_default_capacity_is_uniform_quota(self):
        rng = np.random.default_rng(2)
        cost = rng.random((10, 4))
        assignment = uniform_assign(cost)
        counts = np.bincount(assignment, minlength=4)
        assert counts.max() <= int(np.ceil(10 / 4))

    def test_assignment_prefers_cheap_columns(self):
        cost = np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        assignment = uniform_assign(cost, capacity=1)
        np.testing.assert_array_equal(assignment, [0, 1, 2])

    def test_insufficient_capacity_rejected(self):
        with pytest.raises(ValueError):
            uniform_assign(np.zeros((5, 2)), capacity=2)

    @given(arrays(np.float64, (12, 4),
                  elements=st.floats(0, 10, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_every_row_assigned_within_capacity(self, cost):
        assignment = uniform_assign(cost)
        assert (assignment >= 0).all()
        counts = np.bincount(assignment, minlength=4)
        assert counts.max() <= 3  # ceil(12 / 4)
