"""Tests for experiment configuration."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.experiments.config import (
    ExperimentConfig,
    build_size_distribution,
    build_topology,
)


class TestBuildTopology:
    @pytest.mark.parametrize(
        "spec,nodes",
        [
            ("isp", 32),
            ("fig4", 5),
            ("line-7", 7),
            ("star-4", 5),
            ("cycle-6", 6),
            ("complete-5", 5),
            ("grid-2x3", 6),
            ("tree-2x2", 7),
            ("scale-free-30", 30),
        ],
    )
    def test_specs_build(self, spec, nodes):
        assert build_topology(spec).num_nodes == nodes

    def test_ripple_spec(self):
        topo = build_topology("ripple-tiny")
        assert topo.num_nodes == 60

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigError):
            build_topology("mystery-9")


class TestBuildSizes:
    def test_named_specs(self):
        assert build_size_distribution("isp").mean == 170.0
        assert build_size_distribution("ripple").mean == 345.0

    def test_parameterised_specs(self):
        assert build_size_distribution("constant:25").mean == 25.0
        assert build_size_distribution("exp:50").mean == 50.0

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigError):
            build_size_distribution("weird")


class TestExperimentConfig:
    def test_defaults_build(self):
        config = ExperimentConfig()
        topo = config.build_topology()
        assert topo.num_nodes == 32
        assert all(c == config.capacity for c in topo.capacities.values())

    def test_workload_is_seeded(self):
        config = ExperimentConfig(num_transactions=50)
        nodes = list(range(32))
        assert config.build_workload(nodes) == config.build_workload(nodes)

    def test_workload_independent_of_scheme(self):
        base = ExperimentConfig(num_transactions=50)
        a = base.with_overrides(scheme="max-flow")
        b = base.with_overrides(scheme="shortest-path")
        nodes = list(range(32))
        assert a.build_workload(nodes) == b.build_workload(nodes)

    def test_with_overrides_copies(self):
        base = ExperimentConfig(capacity=100.0)
        changed = base.with_overrides(capacity=200.0)
        assert base.capacity == 100.0
        assert changed.capacity == 200.0

    def test_runtime_config_propagates(self):
        config = ExperimentConfig(mtu=10.0, poll_interval=0.25, scheduling_policy="fifo")
        runtime_config = config.build_runtime_config()
        assert runtime_config.mtu == 10.0
        assert runtime_config.poll_interval == 0.25
        assert runtime_config.scheduling_policy == "fifo"

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(capacity=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(num_transactions=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.01])
    def test_bad_base_fee_rejected(self, value):
        with pytest.raises(ConfigError, match="base_fee must be non-negative and finite"):
            ExperimentConfig(base_fee=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.01])
    def test_bad_fee_rate_rejected(self, value):
        with pytest.raises(ConfigError, match="fee_rate must be non-negative and finite"):
            ExperimentConfig(fee_rate=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.01])
    def test_bad_max_fee_fraction_rejected(self, value):
        with pytest.raises(
            ConfigError, match="max_fee_fraction must be non-negative and finite"
        ):
            ExperimentConfig(max_fee_fraction=value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_transactions", True),
            ("num_transactions", 2.5),
            ("arrival_rate", math.nan),
            ("arrival_rate", math.inf),
            ("sender_exponential_scale", math.nan),
            ("sender_exponential_scale", 0.0),
            ("rotation_interval", math.nan),
            ("deadline", math.nan),
        ],
    )
    def test_malformed_workload_field_rejected_by_name(self, field, value):
        # A NaN deadline or rotation interval used to run to completion as
        # "never expires" / "never rotates" with success ratio 1.0.
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            ExperimentConfig(**{field: value})

    def test_valid_fee_inputs_accepted(self):
        config = ExperimentConfig(base_fee=0.0, fee_rate=0.001, max_fee_fraction=None)
        assert config.build_runtime_config().max_fee_fraction is None
