"""Golden metrics: every registered scheme's canonical metrics JSON, frozen.

``golden_metrics.json`` holds the ``metrics_to_json`` output of
``SimulationSession.from_config(cfg).run()`` for every registered scheme
on two topologies and two seeds.  Unlike the parity suites (fast path vs.
its scalar twin, both from the same tree) this pins behaviour against a
recorded past: a change that shifts any scheme's numbers fails here with
the fields that moved.

Regenerate (only when a behaviour change is intended, and say so in
CHANGES.md) with ``PYTHONPATH=src python tests/engine/test_golden_metrics.py``.
"""

import json
from pathlib import Path

import pytest

from repro.engine.session import SimulationSession
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import metrics_to_json
from repro.routing.registry import available_schemes

GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")

SEEDS = (1, 2)

#: Congested on purpose (success ratios 0.2-0.9): queues fill, deadlines
#: expire, units split at the MTU, and the isp case charges fees.
TOPOLOGIES = {
    "line-5": dict(
        capacity=120.0,
        num_transactions=200,
        arrival_rate=40.0,
        sizes="exp:20",
        mtu=10.0,
    ),
    "isp": dict(
        capacity=400.0,
        num_transactions=250,
        arrival_rate=120.0,
        sizes="isp",
        mtu=50.0,
        base_fee=0.01,
        fee_rate=0.001,
        max_fee_fraction=0.1,
    ),
}


def _key(scheme, topology, seed):
    return f"{scheme}|{topology}|{seed}"


def _run(scheme, topology, seed):
    config = ExperimentConfig(
        scheme=scheme,
        topology=topology,
        seed=seed,
        deadline=3.0,
        **TOPOLOGIES[topology],
    )
    return metrics_to_json(SimulationSession.from_config(config).run())


def _canonical(entry):
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def _field_diff(expected, actual):
    lines = []
    for field in sorted(set(expected) | set(actual)):
        old = expected.get(field, "<absent>")
        new = actual.get(field, "<absent>")
        if _canonical(old) != _canonical(new):
            lines.append(f"  {field}: golden {old!r} != run {new!r}")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_registered_scheme_has_a_golden_entry(golden):
    expected = {
        _key(scheme, topology, seed)
        for scheme in available_schemes()
        for topology in TOPOLOGIES
        for seed in SEEDS
    }
    assert not expected - set(golden), "schemes without golden metrics"
    assert not set(golden) - expected, "golden entries for unregistered schemes"


@pytest.mark.parametrize("scheme", available_schemes())
def test_metrics_match_golden_bytes(golden, scheme):
    mismatches = []
    for topology in TOPOLOGIES:
        for seed in SEEDS:
            key = _key(scheme, topology, seed)
            assert key in golden, f"no golden entry for {key}"
            actual = _run(scheme, topology, seed)
            if actual != _canonical(golden[key]):
                mismatches.append(
                    f"{key}\n{_field_diff(golden[key], json.loads(actual))}"
                )
    assert not mismatches, "metrics drifted from golden:\n" + "\n".join(mismatches)


#: The fields :func:`_moved` reports for an entry that changed.
SUMMARY_FIELDS = ("success_ratio", "success_volume", "completed")


def _moved(old, new):
    """One line per entry of ``new`` whose canonical JSON differs from
    ``old`` (key, then old → new of each :data:`SUMMARY_FIELDS` field),
    plus a closing count of the unchanged entries."""
    lines = []
    for key, entry in new.items():
        before = old.get(key)
        if before is not None and _canonical(before) == _canonical(entry):
            continue
        before = before or {}
        changes = ", ".join(
            f"{field} {before.get(field, '<absent>')!r} -> {entry.get(field)!r}"
            for field in SUMMARY_FIELDS
        )
        lines.append(f"moved {key}: {changes}")
    lines.append(f"unchanged: {len(new) - len(lines)} of {len(new)} entries")
    return lines


if __name__ == "__main__":
    entries = {
        _key(scheme, topology, seed): _run(scheme, topology, seed)
        for scheme in available_schemes()
        for topology in TOPOLOGIES
        for seed in SEEDS
    }
    previous = (
        json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if GOLDEN_PATH.exists()
        else {}
    )
    for line in _moved(
        previous, {key: json.loads(value) for key, value in entries.items()}
    ):
        print(line)
    GOLDEN_PATH.write_text(
        "{\n"
        + ",\n".join(f"{json.dumps(key)}:{value}" for key, value in entries.items())
        + "\n}\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")
