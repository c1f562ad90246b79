"""Shared utilities: seeded RNG streams and lightweight logging."""

from .rng import SeedSequenceFactory
from .logging import get_logger

__all__ = ["SeedSequenceFactory", "get_logger"]
