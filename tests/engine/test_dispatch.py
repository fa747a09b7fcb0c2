"""Macro-tick dispatch parity tests (vectorised cohorts ⇔ scalar loop).

``SimulationSession.vectorized_dispatch`` selects between the macro-tick
:class:`~repro.engine.dispatch.DispatchPlan` (grouped probes, staged
scatter-add locks, cohort reschedules) and the retired per-payment scalar
loop, which stays behind the flag as the parity baseline.  Everything here
pins the two byte-for-byte on serialised metrics — including runs that
force the interesting regimes: mid-cohort conflict groups (shared-channel
pairs replayed against the plan's residual-capacity overlay), fee-bearing
and frozen topologies (staged with per-hop fee schedules), and resolution
flushes landing on the same tick as the poll that relocks the released
funds.

The bulk-scheduling substrate gets its own order pins:
:meth:`TickEngine.schedule_many` must pop identically to repeated scalar
pushes, and :meth:`PendingHeap.add_many` must drain identically to
repeated :meth:`add` calls.
"""

from __future__ import annotations

import pytest

from repro.core.payments import Payment
from repro.core.scheduling import PendingHeap, get_policy
from repro.engine.events import TickEngine
from repro.engine.session import SimulationSession
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.report import metrics_to_json
from repro.errors import SimulationError

PINNED_SCHEMES = [
    "spider-waterfilling",
    "spider-window",
    "spider-window-imbalance",
    "spider-queueing",
    "spider-queueing-qgrad",
    "celer",
    "lnd",
    "shortest-path",
]

#: Schemes whose decision rule the DispatchPlan replays batched (every
#: declared ``cohort_rule``); the fee/shared-channel parity tests sweep
#: exactly these.
BATCHED_SCHEMES = [
    "spider-waterfilling",
    "shortest-path",
    "lnd",
    "spider-window",
    "spider-window-imbalance",
]


def _config(**overrides):
    base = dict(
        scheme="spider-waterfilling",
        topology="line-5",
        capacity=200.0,
        num_transactions=250,
        arrival_rate=50.0,
        seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _run_json(config, vectorized, mutate=None):
    """Serialised metrics of one session run under the given dispatch mode.

    ``mutate(network)`` runs after the network is built and before the
    session starts — both modes replay the identical mutation because the
    inputs are rebuilt from the config seed each time.
    """
    assert SimulationSession.vectorized_dispatch  # default stays vectorised
    SimulationSession.vectorized_dispatch = vectorized
    try:
        if mutate is None:
            metrics = run_experiment(config)
        else:
            network, records, scheme = config.build_simulation_inputs()
            mutate(network)
            session = SimulationSession(
                network, records, scheme, config.build_runtime_config()
            )
            metrics = session.run()
    finally:
        SimulationSession.vectorized_dispatch = True
    return metrics_to_json(metrics).encode()


@pytest.mark.parametrize("scheme", PINNED_SCHEMES)
@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_dispatch_modes_byte_identical(scheme, topology):
    """Vectorised and scalar dispatch serialise to identical bytes.

    ``line-5`` forces every pair through shared channels (constant
    mid-cohort conflicts, heavy fallback traffic); ``ripple-small`` gives
    channel-disjoint path sets real batched coverage.
    """
    config = _config(scheme=scheme, topology=topology, num_transactions=150)
    fast = _run_json(config, vectorized=True)
    slow = _run_json(config, vectorized=False)
    assert fast == slow


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES + ["celer"])
def test_dispatch_parity_with_random_fees_and_frozen_channels(scheme):
    """Fee-bearing hops and frozen channels batch byte-identically.

    A proportional fee schedule plus a seeded random set of frozen
    channels pushes every regime the fee-aware staging must replay — the
    reverse fee recurrence, frozen-hop availability masking and the
    predicted-lock-failure fallback — and the two modes must still agree
    byte for byte.  (``celer`` declares no cohort rule and pins the
    sequential driver arm.)
    """
    import random

    def freeze_some(network):
        rng = random.Random(99)
        channels = list(network.channels())
        for channel in rng.sample(channels, max(1, len(channels) // 8)):
            channel.freeze()

    config = _config(
        scheme=scheme,
        topology="ripple-small",
        num_transactions=150,
        base_fee=0.01,
        fee_rate=0.001,
        max_fee_fraction=0.25,
    )
    fast = _run_json(config, vectorized=True, mutate=freeze_some)
    slow = _run_json(config, vectorized=False, mutate=freeze_some)
    assert fast == slow


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
def test_dispatch_parity_fee_bearing_shared_channels(scheme):
    """Shared-channel path sets with fees batch byte-identically.

    ``line-5`` forces every pair through the same channels, so each
    cohort is one big conflict group: every payment's replay must read
    the residual capacities left by the payments staged before it, with
    per-hop fee-inclusive amounts.  This is the regime PR 6 sent
    wholesale to the scalar fallback.
    """
    config = _config(
        scheme=scheme,
        topology="line-5",
        num_transactions=150,
        base_fee=0.01,
        fee_rate=0.001,
        max_fee_fraction=0.25,
    )
    fast = _run_json(config, vectorized=True)
    slow = _run_json(config, vectorized=False)
    assert fast == slow


def test_mid_cohort_conflicts_batch_through_residual_replay():
    """Shared-channel cohorts batch instead of falling back.

    On ``line-5`` every payment's paths share channels — under PR 6 that
    meant flush-then-scalar for the whole cohort; the residual replay now
    stages those conflict groups, so batched units flow and the fallback
    counter stays at zero (waterfilling decisions clamp to the residual
    bottleneck, so no lock failure can be predicted).  ``ripple-small``
    pins the disjoint fast path alongside.  The parity tests above would
    pass vacuously if the batched arm were dead — this pins the counters,
    and the session's ``dispatch_stats`` accessor with them.
    """
    for topology in ["line-5", "ripple-small"]:
        config = _config(topology=topology, num_transactions=150)
        network, records, scheme = config.build_simulation_inputs()
        session = SimulationSession(
            network, records, scheme, config.build_runtime_config()
        )
        session.run()
        plan = session._dispatch
        assert plan is not None and plan.cohorts > 0
        assert plan.batched_units > 0
        assert plan.scalar_fallbacks == 0
        stats = session.dispatch_stats()
        assert stats == {
            "cohorts": plan.cohorts,
            "cohort_payments": plan.cohort_payments,
            "batched_units": plan.batched_units,
            "scalar_fallbacks": plan.scalar_fallbacks,
        }
        assert stats["cohort_payments"] >= stats["cohorts"]


def test_unbatchable_pair_takes_scalar_fallback():
    """A payment whose pair profile is not batchable drops to the
    scheme's scalar ``attempt`` (flush-first), keeping the fallback arm
    of the cohort driver honest."""
    from repro.engine.dispatch import _PairProfile

    config = _config(topology="ripple-small", num_transactions=10)
    network, records, scheme = config.build_simulation_inputs()
    session = SimulationSession(
        network, records, scheme, config.build_runtime_config()
    )
    session.prepare()
    plan = session._dispatch
    assert plan is not None
    payment = session._new_payment(records[0])
    # Forge the degenerate profile (no probeable path set) for the pair.
    plan._profiles[(payment.source, payment.dest)] = _PairProfile()
    plan.attempt_cohort((payment,))
    assert plan.scalar_fallbacks == 1
    assert payment.units_sent > 0  # the scalar attempt really ran


def test_same_tick_settle_then_lock_ordering():
    """Resolution flushes and polls landing on one tick stay ordered.

    With ``confirmation_delay == poll_interval`` every unit's maturity
    tick coincides with a poll tick, so each poll's cohort relocks value
    released by the same tick's settlement flush.  Both dispatch modes
    must sequence the two identically.
    """
    config = _config(
        topology="ripple-small",
        num_transactions=200,
        confirmation_delay=0.25,
        poll_interval=0.25,
    )
    fast = _run_json(config, vectorized=True)
    slow = _run_json(config, vectorized=False)
    assert fast == slow


def test_schedule_many_matches_repeated_scalar_pushes():
    """Bulk trace scheduling pops in exactly the scalar push order."""
    fired_bulk = []
    fired_scalar = []

    def make(engine, out):
        def cb(tag):
            out.append((engine.now_tick, tag))

        return cb

    ticks = [5, 1, 5, 3, 1, 9, 3, 3, 5]
    tags = list(range(len(ticks)))

    scalar_engine = TickEngine()
    cb = make(scalar_engine, fired_scalar)
    for tick, tag in zip(ticks, tags):
        scalar_engine.schedule_at_tick(tick, cb, (tag,))
    scalar_engine.run()

    bulk_engine = TickEngine()
    cb = make(bulk_engine, fired_bulk)
    bulk_engine.schedule_many(ticks, cb, [(tag,) for tag in tags])
    bulk_engine.run()

    assert fired_bulk == fired_scalar
    # Mixed per-event callbacks take the same path.
    mixed_engine = TickEngine()
    seen = []
    mixed_engine.schedule_many(
        [2, 2, 1],
        [lambda: seen.append("a"), lambda: seen.append("b"), lambda: seen.append("c")],
        [(), (), ()],
    )
    mixed_engine.run()
    assert seen == ["c", "a", "b"]


def test_pending_heap_add_many_matches_repeated_add():
    """Bulk registration drains in exactly the repeated-add order."""
    payments = [
        Payment(
            payment_id=pid,
            source=0,
            dest=1,
            amount=amount,
            arrival_time=0.1 * pid,
        )
        for pid, amount in enumerate([5.0, 1.0, 9.0, 1.0, 3.0, 7.0, 2.0])
    ]
    for policy_name in ["srpt", "fifo", "smallest-total"]:
        one_by_one = PendingHeap(get_policy(policy_name))
        for payment in payments:
            one_by_one.add(payment)
        bulk = PendingHeap(get_policy(policy_name))
        bulk.add_many(payments)
        assert bulk.ordered() == one_by_one.ordered()
        # Equivalence must survive interleaving with a standing heap.
        late = Payment(payment_id=99, source=0, dest=1, amount=0.5, arrival_time=9.9)
        one_by_one.add(late)
        bulk.add_many([late])
        assert bulk.ordered() == one_by_one.ordered()


def test_finish_asserts_dispatch_buffers_drained():
    """A cohort that strands staged sends fails the run loudly.

    ``finish``-time draining is the guard against truncated runs silently
    dropping in-flight units: staged-but-unflushed sends are landed (so
    the store stays conserved) and the session raises.
    """
    config = _config(topology="ripple-small", num_transactions=40)
    network, records, scheme = config.build_simulation_inputs()
    session = SimulationSession(network, records, scheme, config.build_runtime_config())
    session.prepare()
    plan = session._dispatch
    assert plan is not None

    # Forge a staged send the cohort "forgot" to flush.
    from repro.network.htlc import HashLock

    paths = scheme.path_cache.paths(records[0].source, records[0].dest)
    assert paths
    cpath = network.path_table.compile(paths[0])
    payment = session._new_payment(records[0])
    plan._staged_payments.append(payment)
    plan._staged_cpaths.append(cpath)
    plan._staged_amounts.append(1.0)
    plan._staged_fees.append(0.0)
    plan._staged_hop_amounts.append(None)
    plan._staged_locks.append(HashLock.generate(payment.payment_id, 0))
    with pytest.raises(SimulationError) as excinfo:
        plan.assert_drained()
    # The failure is attributable: it names each non-empty staging buffer
    # with its count and the payment ids of the stranded sends.
    message = str(excinfo.value)
    assert "staged_payments=1" in message
    assert "staged_cpaths=1" in message
    assert "staged_amounts=1" in message
    assert f"payment ids [{payment.payment_id}]" in message
    assert not plan._staged_payments  # funds were landed, buffers cleared


def test_truncated_horizon_still_finishes_clean():
    """An ``end_time`` cutting the trace mid-flight finishes without
    tripping the drain assertions, in both dispatch modes, identically."""
    config = _config(topology="ripple-small", num_transactions=250, end_time=1.5)
    fast = _run_json(config, vectorized=True)
    slow = _run_json(config, vectorized=False)
    assert fast == slow
