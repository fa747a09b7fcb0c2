"""Tests for transaction size distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.simulator.rng import make_rng
from repro.workload.distributions import (
    ConstantSize,
    EmpiricalSize,
    ExponentialSize,
    TruncatedLognormalSize,
    UniformSize,
    ripple_full_sizes,
    ripple_isp_sizes,
)
from tests.reference.sizes import ReferenceTruncatedLognormal


class TestConstant:
    def test_samples_are_constant(self):
        sizes = ConstantSize(5.0).sample(make_rng(0), 10)
        assert np.all(sizes == 5.0)

    def test_mean(self):
        assert ConstantSize(7.5).mean == 7.5

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError):
            ConstantSize(0.0)


class TestUniform:
    def test_bounds_respected(self):
        sizes = UniformSize(2.0, 4.0).sample(make_rng(0), 1000)
        assert sizes.min() >= 2.0
        assert sizes.max() <= 4.0

    def test_mean(self):
        assert UniformSize(2.0, 4.0).mean == 3.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError):
            UniformSize(4.0, 2.0)
        with pytest.raises(ConfigError):
            UniformSize(0.0, 2.0)


class TestExponential:
    def test_mean_approximately_matches(self):
        sizes = ExponentialSize(10.0).sample(make_rng(0), 50_000)
        assert sizes.mean() == pytest.approx(10.0, rel=0.05)

    def test_positive_floor(self):
        sizes = ExponentialSize(1.0, minimum=0.5).sample(make_rng(0), 1000)
        assert sizes.min() >= 0.5

    def test_non_positive_mean_rejected(self):
        with pytest.raises(ConfigError):
            ExponentialSize(-1.0)


class TestTruncatedLognormal:
    def test_isp_calibration(self):
        dist = ripple_isp_sizes()
        sizes = dist.sample(make_rng(0), 100_000)
        # §6.1: mean 170 XRP, largest 1780 XRP.
        assert sizes.mean() == pytest.approx(170.0, rel=0.03)
        assert sizes.max() <= 1780.0

    def test_ripple_calibration(self):
        dist = ripple_full_sizes()
        sizes = dist.sample(make_rng(0), 100_000)
        # §6.1: mean 345 XRP, largest 2892 XRP.
        assert sizes.mean() == pytest.approx(345.0, rel=0.03)
        assert sizes.max() <= 2892.0

    def test_truncation_is_hard(self):
        dist = TruncatedLognormalSize(target_mean=10.0, max_value=20.0)
        sizes = dist.sample(make_rng(1), 10_000)
        assert sizes.max() <= 20.0
        assert sizes.min() > 0.0

    def test_mean_property_reports_target(self):
        assert TruncatedLognormalSize(50.0, 500.0).mean == 50.0

    def test_heavy_tail_relative_to_mean(self):
        sizes = ripple_isp_sizes().sample(make_rng(2), 50_000)
        assert np.percentile(sizes, 99) > 4 * sizes.mean()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            TruncatedLognormalSize(100.0, 50.0)  # mean above max
        with pytest.raises(ConfigError):
            TruncatedLognormalSize(-1.0, 50.0)
        with pytest.raises(ConfigError):
            TruncatedLognormalSize(10.0, 50.0, sigma=0.0)


class TestTruncatedLognormalOracle:
    """The ``scipy.special`` kernels against the ``scipy.stats.norm`` form
    (``tests/reference/sizes.py``): same μ, same samples, bit for bit."""

    @staticmethod
    def _assert_matches_reference(dist, seed, n):
        ref = ReferenceTruncatedLognormal(
            dist.mean, dist.max_value, dist._sigma
        )
        assert dist._mu == ref.mu
        got = dist._truncated_mean(dist._mu)
        want = ref._truncated_mean(ref.mu)
        assert type(got) is type(want)
        assert got == want
        assert np.array_equal(
            dist.sample(make_rng(seed), n), ref.sample(make_rng(seed), n)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        target_mean=st.floats(min_value=1e-3, max_value=1e5),
        headroom=st.floats(min_value=1.001, max_value=1e3),
        sigma=st.floats(min_value=0.05, max_value=4.0),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
    )
    def test_matches_norm_reference(self, target_mean, headroom, sigma, seed, n):
        dist = TruncatedLognormalSize(target_mean, target_mean * headroom, sigma)
        self._assert_matches_reference(dist, seed, n)

    @pytest.mark.parametrize("factory", [ripple_isp_sizes, ripple_full_sizes])
    @pytest.mark.parametrize("seed", [0, 23, 4242])
    def test_paper_presets_match_norm_reference(self, factory, seed):
        self._assert_matches_reference(factory(), seed, 50_000)


class TestEmpirical:
    def test_samples_come_from_table(self):
        dist = EmpiricalSize([1.0, 2.0, 3.0])
        sizes = dist.sample(make_rng(0), 1000)
        assert set(np.unique(sizes)) <= {1.0, 2.0, 3.0}

    def test_weighted_mean(self):
        dist = EmpiricalSize([1.0, 3.0], weights=[3.0, 1.0])
        assert dist.mean == pytest.approx(1.5)

    def test_invalid_tables_rejected(self):
        with pytest.raises(ConfigError):
            EmpiricalSize([])
        with pytest.raises(ConfigError):
            EmpiricalSize([1.0, -2.0])
        with pytest.raises(ConfigError):
            EmpiricalSize([1.0], weights=[0.0])


class TestDeterminism:
    def test_same_seed_same_samples(self):
        a = ripple_isp_sizes().sample(make_rng(9), 100)
        b = ripple_isp_sizes().sample(make_rng(9), 100)
        assert np.array_equal(a, b)
