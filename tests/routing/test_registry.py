"""Tests for the scheme registry."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.routing.base import RoutingScheme
from repro.routing.registry import (
    available_schemes,
    make_scheme,
    register_scheme,
    SCHEME_FACTORIES,
)

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


class TestRegistry:
    def test_all_builtins_instantiate(self):
        for name in available_schemes():
            scheme = make_scheme(name)
            assert isinstance(scheme, RoutingScheme)
            assert scheme.name  # every scheme has a display name

    def test_expected_schemes_present(self):
        names = available_schemes()
        for expected in (
            "shortest-path",
            "max-flow",
            "silentwhispers",
            "speedymurmurs",
            "spider-waterfilling",
            "spider-lp",
            "spider-primal-dual",
        ):
            assert expected in names

    def test_kwargs_forwarded(self):
        scheme = make_scheme("spider-waterfilling", num_paths=2)
        assert scheme.num_paths == 2

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="spider-waterfilling"):
            make_scheme("bogus")

    def test_register_custom_scheme(self):
        class Custom(RoutingScheme):
            name = "custom-test"

            def attempt(self, payment, runtime):
                return None

        register_scheme("custom-test", Custom, overwrite=True)
        try:
            assert isinstance(make_scheme("custom-test"), Custom)
        finally:
            del SCHEME_FACTORIES["custom-test"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register_scheme("max-flow", lambda: None)


@pytest.mark.parametrize("name", available_schemes())
def test_every_scheme_has_a_paper_claim_bench(name):
    """Each registered scheme is named in a ``benchmarks/bench_*.py``
    claim (the files CI's paper-claims job gates), so a scheme cannot be
    registered without a claim that runs it."""
    quoted = (f'"{name}"', f"'{name}'")
    assert any(
        any(q in path.read_text(encoding="utf-8") for q in quoted)
        for path in sorted(BENCHMARKS.glob("bench_*.py"))
    ), f"{name} appears in no paper-claim bench"
