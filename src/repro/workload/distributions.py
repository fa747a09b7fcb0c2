"""Transaction size distributions.

The paper samples transaction sizes "from Ripple data after pruning out the
largest 10%"; the resulting ISP-experiment workload has mean 170 XRP and
maximum 1780 XRP, and the Ripple-experiment workload has mean 345 XRP and
maximum 2892 XRP (§6.1).  The raw trace is unavailable offline, so we model
sizes with a *truncated lognormal* — the canonical heavy-tailed model for
payment values — calibrated so the post-truncation mean and the maximum
match the paper's reported statistics exactly (DESIGN.md substitution #1).

For ablations and tests the module also ships constant, uniform, exponential
and empirical (table-driven) distributions behind the same interface.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from repro.errors import ConfigError
from repro.simulator.rng import SeedLike, make_rng

__all__ = [
    "SizeDistribution",
    "ConstantSize",
    "UniformSize",
    "ExponentialSize",
    "TruncatedLognormalSize",
    "EmpiricalSize",
    "ripple_isp_sizes",
    "ripple_full_sizes",
]


class SizeDistribution(Protocol):
    """Anything that can draw positive transaction sizes."""

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` i.i.d. sizes."""
        ...

    @property
    def mean(self) -> float:
        """Expected transaction size."""
        ...


class ConstantSize:
    """Every transaction has the same size (useful for exact accounting)."""

    def __init__(self, value: float):
        if value <= 0:
            raise ConfigError(f"size must be positive, got {value!r}")
        self._value = float(value)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return np.full(n, self._value)

    @property
    def mean(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"ConstantSize({self._value:.6g})"


class UniformSize:
    """Sizes uniform on [low, high]."""

    def __init__(self, low: float, high: float):
        if not 0 < low <= high:
            raise ConfigError(f"need 0 < low <= high, got ({low!r}, {high!r})")
        self._low = float(low)
        self._high = float(high)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.uniform(self._low, self._high, size=n)

    @property
    def mean(self) -> float:
        return (self._low + self._high) / 2.0

    def __repr__(self) -> str:
        return f"UniformSize({self._low:.6g}, {self._high:.6g})"


class ExponentialSize:
    """Exponential sizes with the given mean, floored at ``minimum``."""

    def __init__(self, mean: float, minimum: float = 1e-6):
        if mean <= 0:
            raise ConfigError(f"mean must be positive, got {mean!r}")
        self._mean = float(mean)
        self._minimum = float(minimum)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return np.maximum(rng.exponential(self._mean, size=n), self._minimum)

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"ExponentialSize({self._mean:.6g})"


class TruncatedLognormalSize:
    """Lognormal conditioned on X ≤ max_value, calibrated to a target mean.

    Parameters
    ----------
    target_mean:
        Desired mean *after* truncation.
    max_value:
        Hard upper bound (rejection-free via inverse-CDF sampling).
    sigma:
        Log-scale shape; 1.0 gives the moderate heavy tail typical of
        payment datasets.

    The location parameter μ is found by bisection on the closed-form
    truncated-lognormal mean
    ``E[X | X ≤ T] = exp(μ + σ²/2) · Φ((lnT − μ − σ²)/σ) / Φ((lnT − μ)/σ)``.
    Φ and Φ⁻¹ are :func:`scipy.special.ndtr`/``ndtri``, the kernels
    ``scipy.stats.norm.cdf``/``.ppf`` evaluate, called directly so that
    importing the workload layer does not load ``scipy.stats``
    (``tests/reference/sizes.py`` keeps the ``norm`` form as the oracle).
    """

    def __init__(self, target_mean: float, max_value: float, sigma: float = 1.0):
        if target_mean <= 0 or max_value <= 0:
            raise ConfigError("target_mean and max_value must be positive")
        if target_mean >= max_value:
            raise ConfigError(
                f"target_mean={target_mean!r} must be below max_value={max_value!r}"
            )
        if sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {sigma!r}")
        self._target_mean = float(target_mean)
        self._max_value = float(max_value)
        self._sigma = float(sigma)
        self._mu = self._calibrate_mu()

    def _truncated_mean(self, mu: float) -> float:
        sigma = self._sigma
        log_t = math.log(self._max_value)
        numerator = math.exp(mu + sigma * sigma / 2.0) * ndtr(
            (log_t - mu - sigma * sigma) / sigma
        )
        denominator = ndtr((log_t - mu) / sigma)
        if denominator <= 0:
            return float("inf")
        return numerator / denominator

    def _calibrate_mu(self) -> float:
        low = math.log(self._target_mean) - 10.0
        high = math.log(self._max_value) + 10.0
        for _ in range(200):
            mid = (low + high) / 2.0
            if self._truncated_mean(mid) < self._target_mean:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        # Inverse-CDF sampling restricted to the truncation region: draw
        # u ~ U(0, F(T)) and invert the untruncated lognormal CDF.
        sigma, mu = self._sigma, self._mu
        cap = ndtr((math.log(self._max_value) - mu) / sigma)
        u = rng.uniform(0.0, cap, size=n)
        z = ndtri(u)
        return np.exp(mu + sigma * z)

    @property
    def mean(self) -> float:
        return self._target_mean

    @property
    def max_value(self) -> float:
        """Truncation bound (no sample exceeds this)."""
        return self._max_value

    def __repr__(self) -> str:
        return (
            f"TruncatedLognormalSize(mean={self._target_mean:.6g}, "
            f"max={self._max_value:.6g}, sigma={self._sigma:.3g})"
        )


class EmpiricalSize:
    """Discrete empirical distribution over an explicit value table."""

    def __init__(self, values: Sequence[float], weights: Optional[Sequence[float]] = None):
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ConfigError("empirical distribution needs at least one value")
        if np.any(values <= 0):
            raise ConfigError("all sizes must be positive")
        if weights is None:
            weights = np.ones_like(values)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != values.shape or np.any(weights < 0) or weights.sum() <= 0:
            raise ConfigError("weights must be non-negative, same shape, not all zero")
        self._values = values
        self._probs = weights / weights.sum()

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.choice(self._values, size=n, p=self._probs)

    @property
    def mean(self) -> float:
        return float(np.dot(self._values, self._probs))

    def __repr__(self) -> str:
        return f"EmpiricalSize(n={self._values.size}, mean={self.mean:.6g})"


def ripple_isp_sizes() -> TruncatedLognormalSize:
    """Sizes for the ISP experiments: mean 170 XRP, max 1780 XRP (§6.1)."""
    return TruncatedLognormalSize(target_mean=170.0, max_value=1780.0)


def ripple_full_sizes() -> TruncatedLognormalSize:
    """Sizes for the Ripple experiments: mean 345 XRP, max 2892 XRP (§6.1)."""
    return TruncatedLognormalSize(target_mean=345.0, max_value=2892.0)
