"""The truncated-lognormal size model written against ``scipy.stats.norm``.

:class:`~repro.workload.distributions.TruncatedLognormalSize` calls the
standard-normal kernels :func:`scipy.special.ndtr`/``ndtri`` directly, so
that importing the workload layer does not load ``scipy.stats``.  This is
the textbook form it replaced — Φ as ``norm.cdf``, Φ⁻¹ as ``norm.ppf`` —
kept as the oracle: the calibrated μ and every sample must agree with it
bit for bit, so a SciPy release that ever splits the two shows up as a
failing test rather than only as a moved metrics digest.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

__all__ = ["ReferenceTruncatedLognormal"]


class ReferenceTruncatedLognormal:
    """Lognormal conditioned on ``X ≤ max_value``, μ calibrated by
    bisection on the closed-form truncated mean (no argument checks: the
    engine class validates)."""

    def __init__(self, target_mean: float, max_value: float, sigma: float = 1.0):
        self.target_mean = float(target_mean)
        self.max_value = float(max_value)
        self.sigma = float(sigma)
        self.mu = self._calibrate_mu()

    def _truncated_mean(self, mu: float) -> float:
        sigma = self.sigma
        log_t = math.log(self.max_value)
        numerator = math.exp(mu + sigma * sigma / 2.0) * norm.cdf(
            (log_t - mu - sigma * sigma) / sigma
        )
        denominator = norm.cdf((log_t - mu) / sigma)
        if denominator <= 0:
            return float("inf")
        return numerator / denominator

    def _calibrate_mu(self) -> float:
        low = math.log(self.target_mean) - 10.0
        high = math.log(self.max_value) + 10.0
        for _ in range(200):
            mid = (low + high) / 2.0
            if self._truncated_mean(mid) < self.target_mean:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        sigma, mu = self.sigma, self.mu
        cap = norm.cdf((math.log(self.max_value) - mu) / sigma)
        u = rng.uniform(0.0, cap, size=n)
        return np.exp(mu + sigma * norm.ppf(u))
