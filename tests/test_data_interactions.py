"""Tests for the behaviour simulator."""

import numpy as np
import pytest

from repro.data import (
    BehaviorConfig,
    BehaviorModel,
    CatalogConfig,
    generate_catalog,
    simulate_interactions,
)


def make_catalog(seed=0):
    return generate_catalog(CatalogConfig(num_items=60, num_categories=4,
                                          subcategories_per_category=2),
                            np.random.default_rng(seed))


class TestBehaviorModel:
    def test_user_preferences_are_distributions(self):
        catalog = make_catalog()
        model = BehaviorModel(catalog, BehaviorConfig(num_users=40),
                              np.random.default_rng(1))
        sums = model.user_preferences.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_preferred_categories_sparse(self):
        catalog = make_catalog()
        config = BehaviorConfig(num_users=40)
        model = BehaviorModel(catalog, config, np.random.default_rng(1))
        nonzero = (model.user_preferences > 0).sum(axis=1)
        assert (nonzero <= 2).all()

    def test_complement_map_is_derangement_like(self):
        catalog = make_catalog()
        model = BehaviorModel(catalog, BehaviorConfig(num_users=5),
                              np.random.default_rng(2))
        for source, target in model.complements.items():
            assert source != target

    def test_sequence_lengths_respect_bounds(self):
        catalog = make_catalog()
        config = BehaviorConfig(num_users=30, max_length=12)
        model = BehaviorModel(catalog, config, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for user in range(30):
            seq = model.simulate_user(user, rng)
            assert 5 <= len(seq) <= 12

    def test_no_immediate_repetition(self):
        catalog = make_catalog()
        model = BehaviorModel(catalog, BehaviorConfig(num_users=10),
                              np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for user in range(10):
            seq = model.simulate_user(user, rng)
            assert all(a != b for a, b in zip(seq, seq[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BehaviorConfig(num_users=0).validate()
        with pytest.raises(ValueError):
            BehaviorConfig(stay_subcategory_prob=0.6, stay_category_prob=0.4,
                           complement_prob=0.2).validate()

    def test_subcategory_coherence(self):
        """High stay probability should produce category-coherent sessions."""
        catalog = make_catalog()
        config = BehaviorConfig(num_users=50, stay_subcategory_prob=0.8,
                                stay_category_prob=0.15, complement_prob=0.0)
        model = BehaviorModel(catalog, config, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        same = total = 0
        for user in range(50):
            seq = model.simulate_user(user, rng)
            subs = [catalog[i].subcategory for i in seq]
            same += sum(1 for a, b in zip(subs, subs[1:]) if a == b)
            total += len(subs) - 1
        assert same / total > 0.5


class TestSimulateInteractions:
    def test_timestamps_sequential_per_user(self):
        catalog = make_catalog()
        log, _ = simulate_interactions(catalog, BehaviorConfig(num_users=20),
                                       np.random.default_rng(9))
        per_user: dict[int, list[int]] = {}
        for event in log:
            per_user.setdefault(event.user_id, []).append(event.timestamp)
        for stamps in per_user.values():
            assert stamps == sorted(stamps)
            assert stamps[0] == 0

    def test_every_user_present(self):
        catalog = make_catalog()
        log, _ = simulate_interactions(catalog, BehaviorConfig(num_users=25),
                                       np.random.default_rng(10))
        assert {event.user_id for event in log} == set(range(25))

    def test_item_ids_in_range(self):
        catalog = make_catalog()
        log, _ = simulate_interactions(catalog, BehaviorConfig(num_users=15),
                                       np.random.default_rng(11))
        assert all(0 <= event.item_id < len(catalog) for event in log)
