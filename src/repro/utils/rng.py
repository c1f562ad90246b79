"""Deterministic random-number-stream management.

Every stochastic component in the library (data simulator, weight init,
dropout, template sampling, beam tie-breaking) draws from its own named
stream derived from one experiment seed, so runs are exactly reproducible
and components can be re-seeded independently.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["SeedSequenceFactory"]


class SeedSequenceFactory:
    """Derive independent named RNG streams from a single root seed.

    >>> factory = SeedSequenceFactory(42)
    >>> a = factory.rng("catalog")
    >>> b = factory.rng("users")

    Streams for distinct names are statistically independent, and the same
    name always yields the same stream.
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)

    def child_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.root_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng(self.child_seed(name))
