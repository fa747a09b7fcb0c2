"""Seeded randomness for simulations."""

from repro.simulator.rng import derive_seed, exponential_weights, make_rng, spawn

__all__ = [
    "derive_seed",
    "exponential_weights",
    "make_rng",
    "spawn",
]
