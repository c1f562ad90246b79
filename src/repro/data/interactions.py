"""User-behaviour simulator producing chronological interaction logs.

The simulator generates the *collaborative* semantics of the benchmark:

* Each user has sparse preferences over a few categories.
* Sessions are Markovian: the next interaction usually stays in the same
  subcategory, sometimes moves within the category, and sometimes jumps to
  a fixed **complement subcategory** (think console -> game).  Complement
  transitions are the collaborative signal that is *invisible to text
  similarity* — this is what Table V's "collaborative negatives" probe.
* Item choice within a subcategory mixes Zipf popularity with user noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ItemCatalog

__all__ = ["Interaction", "BehaviorConfig", "BehaviorModel", "simulate_interactions"]


@dataclass(frozen=True)
class Interaction:
    """One user-item event (timestamps are per-user sequence positions)."""

    user_id: int
    item_id: int
    timestamp: int


_MIN_LENGTH = 5  # interactions per simulated user, the 5-core filter's floor
_PREFERRED_CATEGORIES = 2  # categories a user's preferences spread over


@dataclass
class BehaviorConfig:
    """Parameters of the behaviour simulator."""

    num_users: int = 500
    mean_length: float = 9.0
    max_length: int = 40
    stay_subcategory_prob: float = 0.45
    stay_category_prob: float = 0.30
    complement_prob: float = 0.15
    user_noise: float = 0.35

    def validate(self) -> None:
        if self.num_users < 1:
            raise ValueError("num_users must be positive")
        total = self.stay_subcategory_prob + self.stay_category_prob + self.complement_prob
        if total > 1.0:
            raise ValueError("transition probabilities exceed 1")


class BehaviorModel:
    """Holds the latent state of the simulation (used by intention texts).

    Attributes
    ----------
    complements:
        ``complements[s]`` is the complement subcategory of ``s``.
    user_preferences:
        ``(num_users, num_categories)`` preference distribution rows.
    popularity:
        Per-item Zipf weight.
    """

    def __init__(self, catalog: ItemCatalog, config: BehaviorConfig, rng: np.random.Generator):
        config.validate()
        self.catalog = catalog
        self.config = config
        num_items = len(catalog)
        num_subs = catalog.num_subcategories

        # Zipf popularity (exponent 1) over a random permutation of items.
        ranks = rng.permutation(num_items) + 1
        self.popularity = 1.0 / ranks

        # Items grouped by subcategory (some may be empty).
        subs = catalog.subcategories()
        self.items_by_sub: list[np.ndarray] = [
            np.flatnonzero(subs == s) for s in range(num_subs)
        ]
        self.nonempty_subs = [s for s in range(num_subs) if len(self.items_by_sub[s]) > 0]

        # Fixed derangement-ish complement map between non-empty subcategories.
        shuffled = list(self.nonempty_subs)
        rng.shuffle(shuffled)
        rotated = shuffled[1:] + shuffled[:1]
        self.complements = {s: t for s, t in zip(shuffled, rotated)}

        # Sparse user preferences over categories.
        num_cats = catalog.num_categories
        self.user_preferences = np.zeros((config.num_users, num_cats))
        for user in range(config.num_users):
            k = min(_PREFERRED_CATEGORIES, num_cats)
            chosen = rng.choice(num_cats, size=k, replace=False)
            weights = rng.dirichlet(np.ones(k) * 1.5)
            self.user_preferences[user, chosen] = weights

    # ------------------------------------------------------------------
    def _sample_item(
        self, subcategory: int, rng: np.random.Generator, exclude: int | None = None
    ) -> int:
        candidates = self.items_by_sub[subcategory]
        if exclude is not None and len(candidates) > 1:
            candidates = candidates[candidates != exclude]
        weights = self.popularity[candidates]
        noise = rng.random(len(candidates)) * self.config.user_noise
        weights = weights + noise
        weights = weights / weights.sum()
        return int(rng.choice(candidates, p=weights))

    def _sample_subcategory_for_category(self, category: int, rng: np.random.Generator) -> int:
        per = self.catalog.num_subcategories // self.catalog.num_categories
        options = [category * per + i for i in range(per)]
        options = [s for s in options if len(self.items_by_sub[s]) > 0]
        if not options:
            return int(rng.choice(self.nonempty_subs))
        return int(options[rng.integers(len(options))])

    def _start_subcategory(self, user: int, rng: np.random.Generator) -> int:
        prefs = self.user_preferences[user]
        category = int(rng.choice(len(prefs), p=prefs / prefs.sum()))
        return self._sample_subcategory_for_category(category, rng)

    def _next_subcategory(self, user: int, current_sub: int, rng: np.random.Generator) -> int:
        cfg = self.config
        roll = rng.random()
        if roll < cfg.stay_subcategory_prob:
            return current_sub
        roll -= cfg.stay_subcategory_prob
        if roll < cfg.complement_prob and current_sub in self.complements:
            return self.complements[current_sub]
        roll -= cfg.complement_prob
        if roll < cfg.stay_category_prob:
            per = self.catalog.num_subcategories // self.catalog.num_categories
            return self._sample_subcategory_for_category(current_sub // per, rng)
        return self._start_subcategory(user, rng)

    # ------------------------------------------------------------------
    def simulate_user(self, user: int, rng: np.random.Generator) -> list[int]:
        """One chronological item-id sequence for ``user``."""
        cfg = self.config
        extra = rng.poisson(max(cfg.mean_length - _MIN_LENGTH, 0.1))
        length = int(np.clip(_MIN_LENGTH + extra, _MIN_LENGTH, cfg.max_length))
        sub = self._start_subcategory(user, rng)
        sequence: list[int] = []
        previous = None
        for _ in range(length):
            item = self._sample_item(sub, rng, exclude=previous)
            sequence.append(item)
            previous = item
            sub = self._next_subcategory(user, sub, rng)
        return sequence


def simulate_interactions(
    catalog: ItemCatalog, config: BehaviorConfig, rng: np.random.Generator
) -> tuple[list[Interaction], BehaviorModel]:
    """Simulate the full interaction log; returns it with the latent model."""
    model = BehaviorModel(catalog, config, rng)
    log: list[Interaction] = []
    for user in range(config.num_users):
        for t, item in enumerate(model.simulate_user(user, rng)):
            log.append(Interaction(user_id=user, item_id=item, timestamp=t))
    return log, model
