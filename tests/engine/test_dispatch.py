"""Macro-tick dispatch parity tests (batched replay ⇔ sequential attempts).

The :class:`~repro.engine.dispatch.DispatchPlan` has two cohort replays
(grouped probes, staged scatter-add locks): waterfilling on a network
where some channel charges a fee, and the spider-window launch loop.
Every other scheme and network runs the scheme's own ``attempt`` per
payment, in cohort order — which is also the replays' reference: the
same session with ``scheme.cohort_rule = None``.  Which runs where is
pinned by :func:`test_replay_runs_only_where_it_pays`.
Everything else here pins the two arms byte-for-byte on serialised
metrics — and, below the metrics, bit for bit on the final store arrays —
for both replays, including runs that force the interesting regimes:
mid-cohort conflict groups (shared-channel pairs replayed against the
plan's residual-capacity overlay), fee-bearing and frozen topologies
(staged with per-hop fee schedules), and resolution flushes landing on the
same tick as the poll that relocks the released funds.  The overlay's lock
replay has its own store-level oracle: a hypothesis differential against
``ChannelStateStore.lock_path_funds``.

The bulk-scheduling substrate gets its own order pins:
:meth:`TickEngine.schedule_many` must pop identically to repeated scalar
pushes, and :meth:`PendingHeap.add_many` must drain identically to
repeated :meth:`add` calls.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.payments import Payment
from repro.core.scheduling import PendingHeap, get_policy
from repro.engine.events import TickEngine
from repro.engine.session import SimulationSession
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import metrics_to_json
from repro.errors import InsufficientFundsError, SimulationError
from repro.workload.generator import TransactionRecord

#: A fee schedule on every channel: what makes waterfilling replay.
FEES = dict(base_fee=0.01, fee_rate=0.001, max_fee_fraction=0.25)

#: The schemes the DispatchPlan replays, each with the config overrides
#: that make it replay (waterfilling only where some channel charges a
#: fee); the parity tests sweep exactly these.
BATCHED_SCHEMES = {
    "spider-waterfilling": FEES,
    "spider-window": {},
}


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


#: The store state a lock, settle or refund can move — what "the same
#: run" means below the metrics JSON.
STORE_ARRAYS = (
    "balance",
    "inflight",
    "sent",
    "settled_flow",
    "num_settled",
    "num_refunded",
)


def _store_arrays(store):
    return {name: getattr(store, name)[: len(store)].copy() for name in STORE_ARRAYS}


def _assert_same_store(fast, slow):
    for name in STORE_ARRAYS:
        assert np.array_equal(fast[name], slow[name]), name


def _session(config, batched=True, mutate=None):
    """A session for ``config``; ``batched=False`` clears the scheme's
    ``cohort_rule``, so the plan runs its ``attempt`` sequentially.

    ``mutate(network)`` runs after the network is built and before the
    session starts — both arms replay the identical mutation because the
    inputs are rebuilt from the config seed each time.
    """
    network, records, scheme = config.build_simulation_inputs()
    if not batched:
        scheme.cohort_rule = None
    if mutate is not None:
        mutate(network)
    return SimulationSession(network, records, scheme, config.build_runtime_config())


def _run(config, batched, mutate=None):
    """Serialised metrics, final store arrays and dispatch counters of one
    session run."""
    session = _session(config, batched, mutate)
    metrics = session.run()
    return (
        metrics_to_json(metrics).encode(),
        _store_arrays(session.network.state_store),
        session.dispatch_stats(),
    )


def _assert_modes_agree(config, mutate=None):
    """Batched replay and sequential attempts: same metrics bytes, same
    store bits — and the batched arm really ran batched."""
    fast_json, fast_store, fast_stats = _run(config, batched=True, mutate=mutate)
    slow_json, slow_store, slow_stats = _run(config, batched=False, mutate=mutate)
    assert fast_stats["batched_units"] > 0
    assert slow_stats["batched_units"] == 0
    assert fast_json == slow_json
    _assert_same_store(fast_store, slow_store)


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_dispatch_modes_byte_identical(scheme, topology):
    """Batched replay and sequential attempts serialise identically.

    ``line-5`` forces every pair through shared channels (constant
    mid-cohort conflicts); ``ripple-small`` gives channel-disjoint path
    sets real batched coverage.
    """
    _assert_modes_agree(
        _config(
            scheme=scheme,
            topology=topology,
            num_transactions=150,
            **BATCHED_SCHEMES[scheme],
        )
    )


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
def test_dispatch_parity_with_random_fees_and_frozen_channels(scheme):
    """Fee-bearing hops and frozen channels batch byte-identically.

    A proportional fee schedule plus a seeded random set of frozen
    channels pushes every regime the fee-aware staging must replay — the
    reverse fee recurrence, frozen-hop availability masking and the
    predicted-lock-failure fallback — and the two arms must still agree
    byte for byte.
    """
    import random

    def freeze_some(network):
        rng = random.Random(99)
        channels = list(network.channels())
        for channel in rng.sample(channels, max(1, len(channels) // 8)):
            channel.freeze()

    config = _config(
        scheme=scheme, topology="ripple-small", num_transactions=150, **FEES
    )
    _assert_modes_agree(config, mutate=freeze_some)


@pytest.mark.parametrize("scheme", BATCHED_SCHEMES)
def test_dispatch_parity_fee_bearing_shared_channels(scheme):
    """Shared-channel path sets with fees batch byte-identically.

    ``line-5`` forces every pair through the same channels, so each
    cohort is one big conflict group: every payment's replay must read
    the residual capacities left by the payments staged before it, with
    per-hop fee-inclusive amounts.
    """
    config = _config(scheme=scheme, topology="line-5", num_transactions=150, **FEES)
    _assert_modes_agree(config)


def test_dispatch_parity_where_only_some_channels_charge_fees():
    """A network where an eighth of the channels charge a fee makes waterfilling
    replay, and the path sets that avoid every fee-charging channel go
    through the same residual overlay as the rest.  Both arms agree byte
    for byte, and the run really held such fee-free path sets."""
    import random

    def charge_some(network):
        rng = random.Random(5)
        channels = list(network.channels())
        for channel in rng.sample(channels, len(channels) // 8):
            channel.base_fee = 0.01
            channel.fee_rate = 0.001

    config = _config(
        topology="ripple-small", num_transactions=150, max_fee_fraction=0.25
    )
    _assert_modes_agree(config, mutate=charge_some)
    session = _session(config, mutate=charge_some)
    session.run()
    profiles = session._dispatch._profiles.values()
    fee_free = [
        all(cpath.fee_free for cpath in prof.cpaths)
        for prof in profiles
        if prof.probe is not None
    ]
    assert any(fee_free) and not all(fee_free)


def test_mid_cohort_conflicts_batch_through_residual_replay():
    """Shared-channel cohorts batch instead of falling back.

    On ``line-5`` every payment's paths share channels; the residual
    replay stages those conflict groups, so batched units flow and the
    fallback counter stays at zero.  The parity tests above would pass
    vacuously if the batched arm were dead — this pins the counters, and
    the session's ``dispatch_stats`` accessor with them.

    Fee-bearing waterfilling and window cohorts are held to that zero:
    fee-inclusive per-hop amounts, fee-budget vetoes and failed eager
    locks are all replayed in the batch, so no payment may drop to the
    scheme's scalar ``attempt``.
    """
    cases = [dict(topology=topology, **FEES) for topology in ["line-5", "ripple-small"]]
    cases += [
        dict(scheme=scheme, topology=topology, capacity=400.0, seed=1, **FEES)
        for scheme in BATCHED_SCHEMES
        for topology in ["line-5", "ripple-small", "isp"]
    ]
    for case in cases:
        config = _config(num_transactions=150, **case)
        network, records, scheme = config.build_simulation_inputs()
        session = SimulationSession(
            network, records, scheme, config.build_runtime_config()
        )
        session.run()
        plan = session._dispatch
        assert plan.cohorts > 0
        assert plan.batched_units > 0
        assert plan.scalar_fallbacks == 0
        stats = session.dispatch_stats()
        assert stats == {
            "cohorts": plan.cohorts,
            "cohort_payments": plan.cohort_payments,
            "batched_units": plan.batched_units,
            "scalar_fallbacks": plan.scalar_fallbacks,
            "replayed_locks": plan.replayed_locks,
            "failed_locks": plan.failed_locks,
        }
        assert stats["cohort_payments"] >= stats["cohorts"]
        assert stats["replayed_locks"] >= stats["failed_locks"]


def test_unbatchable_pair_takes_scalar_fallback():
    """A payment whose pair profile is not batchable drops to the
    scheme's scalar ``attempt`` (flush-first), keeping the fallback arm
    of the cohort driver honest."""
    from repro.engine.dispatch import _PairProfile

    # An MTU below the fresh bottleneck leaves room for the upstream fees,
    # so the scalar attempt's locks land instead of bouncing.
    config = _config(topology="ripple-small", num_transactions=10, mtu=10.0, **FEES)
    network, records, scheme = config.build_simulation_inputs()
    session = SimulationSession(
        network, records, scheme, config.build_runtime_config()
    )
    session.prepare()
    plan = session._dispatch
    payment = session._new_payment(records[0])
    # Forge the degenerate profile (no probeable path set) for the pair.
    plan._profiles[(payment.source, payment.dest)] = _PairProfile()
    plan.attempt_cohort((payment,))
    assert plan.scalar_fallbacks == 1
    assert payment.units_sent > 0  # the scalar attempt really ran


def test_lock_counters_count_the_fee_regime():
    """``replayed_locks``/``failed_locks`` tell the fee regime apart.

    On the fee-bearing shared-channel line waterfilling offers the
    bottleneck and the fee-loaded upstream hops then need more than it
    holds, so locks bounce; on fee-free ``ripple-small`` no lock can
    bounce, so no replay runs at all.
    """

    def stats(**overrides):
        config = _config(num_transactions=150, **overrides)
        session = SimulationSession.from_config(config)
        session.run()
        return session.dispatch_stats()

    fees = stats(topology="line-5", **FEES)
    assert 0 < fees["failed_locks"] < fees["replayed_locks"]
    free = stats(topology="ripple-small")
    assert free["cohorts"] > 0
    assert free["replayed_locks"] == free["batched_units"] == 0


def test_replay_runs_only_where_it_pays(monkeypatch):
    """The plan replays fee-bearing waterfilling and the window launch
    loop, and nothing else: fee-free waterfilling, shortest-path and LND
    decide through their own ``attempt`` (every cohort still counted),
    with no replayed unit and — fee-free waterfilling — no cohort probe
    refresh."""
    from repro.engine.pathtable import PathTable

    refreshes = []
    refresh = PathTable.refresh_probes

    def counting(self, probes):
        refreshes.append(len(probes))
        refresh(self, probes)

    monkeypatch.setattr(PathTable, "refresh_probes", counting)

    def stats(scheme, **overrides):
        refreshes.clear()
        config = _config(
            scheme=scheme, topology="ripple-small", num_transactions=150, **overrides
        )
        session = SimulationSession.from_config(config)
        session.run()
        stats = session.dispatch_stats()
        assert stats["cohorts"] > 0
        assert stats["scalar_fallbacks"] == 0
        return stats

    free = stats("spider-waterfilling")
    assert free["batched_units"] == free["replayed_locks"] == 0
    assert not refreshes
    assert stats("spider-waterfilling", **FEES)["batched_units"] > 0
    assert refreshes
    for scheme in ["shortest-path", "lnd"]:
        for overrides in [{}, FEES]:
            sequential = stats(scheme, **overrides)
            assert sequential["batched_units"] == sequential["replayed_locks"] == 0
    assert stats("spider-window")["batched_units"] > 0


def test_replay_rule_is_worked_out_at_prime_or_the_first_cohort():
    """A scheme with a path view decides in ``prepare`` (its ``prime``);
    LND has none, so its plan decides at the first cohort."""
    primed = _prepared(_config(topology="ripple-small", num_transactions=10))
    assert primed._dispatch._rule_decided
    config = _config(scheme="lnd", topology="ripple-small", num_transactions=10)
    session = _prepared(config)
    plan = session._dispatch
    assert not plan._rule_decided
    plan.attempt_cohort([session._new_payment(session.records[0])])
    assert plan._rule_decided and plan._rule is None


@pytest.mark.parametrize("scheme", ["spider-waterfilling", "shortest-path"])
def test_prime_warms_the_sequential_path(scheme):
    """For a scheme that does not replay, ``prepare`` compiles every path
    the trace routes over and holds one probe handle per path set, and
    builds no dispatch profile; the run then compiles no path and builds
    no probe of its own."""
    config = _config(scheme=scheme, topology="ripple-small", num_transactions=150)
    session = _prepared(config)
    table = session.network.path_table
    compiled, probes = len(table._compiled), len(table._probes)
    pairs = {(record.source, record.dest) for record in session.records}
    assert probes == len(pairs)
    assert not session._dispatch._profiles
    session.run()
    assert session.dispatch_stats()["batched_units"] == 0
    assert (len(table._compiled), len(table._probes)) == (compiled, probes)


def test_window_without_a_hop_transport_runs_its_own_attempt():
    """With no hop transport attached the window rule does not replay:
    the scheme's own ``attempt`` raises its ``TypeError``, and no
    fallback is counted."""
    from repro.core.window_control import WindowedSpiderScheme
    from repro.topology.generators import line_topology

    network = line_topology(3).build_network(default_capacity=100.0)
    session = SimulationSession(network, [], WindowedSpiderScheme())
    plan = session._dispatch
    payment = Payment(payment_id=1, source=0, dest=2, amount=1.0, arrival_time=0.0)
    with pytest.raises(TypeError):
        plan.attempt_cohort([payment])
    assert plan._rule is None
    assert plan.scalar_fallbacks == 0


@pytest.mark.parametrize(
    "scheme",
    ["spider-waterfilling", "spider-window", "shortest-path", "lnd", "spider-amp"],
)
def test_cohort_counters_count_every_attempt(scheme):
    """``cohort_payments`` is every attempt the session made, whether the
    cohort replayed or ran the scheme's own ``attempt`` — a scheme that
    declares no ``cohort_rule`` at all included."""
    config = _config(scheme=scheme, topology="ripple-small", num_transactions=150)
    session = _session(config)
    session.run()
    stats = session.dispatch_stats()
    attempts = sum(payment.attempts for payment in session.payments.values())
    assert stats["cohort_payments"] == attempts > 0
    assert 0 < stats["cohorts"] <= attempts


def _prepared(config, batched=True):
    session = _session(config, batched)
    session.prepare()
    return session


@pytest.mark.parametrize("scheme", ["spider-waterfilling"])
def test_mid_cohort_fallback_drops_the_seeded_overlay(scheme):
    """A scalar fallback between two replays leaves no stale balance.

    On the fee-bearing line every pair shares channels.  The cohort is
    (replayed, forged fallback, replayed, replayed): the first replay
    seeds the overlay with the whole cohort's balances, the fallback's
    scalar attempt then moves the store behind it, and the replays after
    it must decide on what that attempt left — the store ends bit for bit
    where the sequential attempts leave it.
    """
    from repro.engine.dispatch import _PairProfile

    config = _config(scheme=scheme, topology="line-5", num_transactions=40, **FEES)
    fast = _prepared(config)
    slow = _prepared(config, batched=False)
    # 100 spendable per direction: the first payment takes 60 off every
    # hop, the fallback 30 more off hops 1 -> 2 -> 3, and the third finds
    # 10 there — or 40, if it still reads the balances seeded before the
    # fallback.
    cohort = [
        TransactionRecord(900 + i, 0.0, source, dest, amount)
        for i, (source, dest, amount) in enumerate(
            [(0, 4, 60.0), (1, 3, 30.0), (0, 4, 60.0), (2, 4, 30.0)]
        )
    ]
    middle = cohort[1]
    plan = fast._dispatch
    plan._profiles[(middle.source, middle.dest)] = _PairProfile()
    plan.attempt_cohort([fast._new_payment(r) for r in cohort])
    for record in cohort:
        slow.scheme.attempt(slow._new_payment(record), slow)
    assert plan.scalar_fallbacks == 1
    assert plan.replayed_locks > 0
    _assert_same_store(
        _store_arrays(fast.network.state_store),
        _store_arrays(slow.network.state_store),
    )
    plan.assert_drained()


def _forbid_probe_refresh(monkeypatch):
    from repro.engine.pathtable import PathTable

    def refuse(self, probes):
        raise AssertionError("a cohort refreshed its probe caches")

    monkeypatch.setattr(PathTable, "refresh_probes", refuse)


@pytest.mark.parametrize("scheme", ["spider-window"])
@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_window_cohorts_never_refresh_probes(monkeypatch, scheme, topology):
    """The window rule reads first hops lazily through the overlay and
    never a probe value, so its cohorts refresh no probe cache — and the
    run still matches the sequential attempts byte for byte."""
    _forbid_probe_refresh(monkeypatch)
    _assert_modes_agree(
        _config(scheme=scheme, topology=topology, num_transactions=150)
    )


def test_window_cohort_after_fallback_reads_live_state(monkeypatch):
    """A scalar fallback mid-cohort needs no probe backstop for the
    window rule: the fallback's flush drops the lazily filled overlay, so
    the launches after it read what that attempt left.  Cohort
    (replayed, forged fallback, replayed) on the line, where every pair
    shares channels; the store ends bit for bit where the sequential
    attempts leave it."""
    from repro.engine.dispatch import _PairProfile

    _forbid_probe_refresh(monkeypatch)
    config = _config(scheme="spider-window", topology="line-5", num_transactions=40)
    fast = _prepared(config)
    slow = _prepared(config, batched=False)
    cohort = [
        TransactionRecord(900 + i, 0.0, source, dest, amount)
        for i, (source, dest, amount) in enumerate(
            [(0, 4, 60.0), (0, 3, 30.0), (0, 4, 60.0)]
        )
    ]
    middle = cohort[1]
    plan = fast._dispatch
    plan._profiles[(middle.source, middle.dest)] = _PairProfile()
    plan.attempt_cohort([fast._new_payment(r) for r in cohort])
    for record in cohort:
        slow.scheme.attempt(slow._new_payment(record), slow)
    assert plan.scalar_fallbacks == 1
    assert plan.batched_units > 0
    _assert_same_store(
        _store_arrays(fast.network.state_store),
        _store_arrays(slow.network.state_store),
    )
    plan.assert_drained()


@pytest.mark.parametrize("scheme", ["spider-window"])
@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_window_cache_matches_sequential_windows(scheme, topology):
    """The per-pair window cache creates, fills and reads the scheme's
    window states exactly as the sequential attempts do: the same
    ``window_snapshot()`` — keys in the same creation order, same window
    values — and every cached state is the scheme's own object."""
    config = _config(scheme=scheme, topology=topology, num_transactions=150)
    fast = _session(config)
    fast.run()
    slow = _session(config, batched=False)
    slow.run()
    fast_windows = fast.scheme.window_snapshot()
    assert list(fast_windows.items()) == list(slow.scheme.window_snapshot().items())
    cached = [
        prof for prof in fast._dispatch._profiles.values() if prof.windows is not None
    ]
    assert cached
    for prof in cached:
        assert len(prof.windows) == len(prof.cpaths)
        for cpath, state in zip(prof.cpaths, prof.windows):
            assert fast.scheme.window(cpath.nodes) is state


def test_window_headroom_is_recomputed_like_the_scheme():
    """After each launch the replay's headroom is ``window - inflight``
    again, not a running ``headroom - amount``: with a 1.0 window and a
    0.3 MTU the two part at the fourth launch (0.10000000000000009 vs
    0.09999999999999998), and the batched launches must land on the
    sequential attempt's bits."""
    config = _config(scheme="spider-window", topology="line-5", num_transactions=1, mtu=0.3)
    arms = [_prepared(config), _prepared(config, batched=False)]
    record = TransactionRecord(900, 0.0, 0, 4, 50.0)
    payments = []
    for session in arms:
        for path in session.scheme.path_cache.paths(0, 4):
            session.scheme.window(tuple(path)).window = 1.0
        payments.append(session._new_payment(record))
    arms[0]._dispatch.attempt_cohort([payments[0]])
    arms[1].scheme.attempt(payments[1], arms[1])
    assert payments[0].inflight == payments[1].inflight == 1.0
    assert arms[0].scheme.window_snapshot() == arms[1].scheme.window_snapshot()
    fast_states = [state.inflight for state in arms[0].scheme._windows.values()]
    slow_states = [state.inflight for state in arms[1].scheme._windows.values()]
    assert fast_states == slow_states
    _assert_same_store(
        _store_arrays(arms[0].network.state_store),
        _store_arrays(arms[1].network.state_store),
    )


def test_window_cache_holds_a_state_created_before_the_first_cohort():
    """A path's window made through ``scheme.window()`` before the pair's
    first cohort is the object the cache holds, and the replay fills it."""
    config = _config(scheme="spider-window", topology="ripple-small", num_transactions=20)
    session = _prepared(config)
    record = session.records[0]
    paths = session.scheme.path_cache.paths(record.source, record.dest)
    early = [session.scheme.window(tuple(path)) for path in paths]
    early[0].window = 7.5  # a state the cache must not replace
    plan = session._dispatch
    payment = session._new_payment(record)
    plan.attempt_cohort([payment])
    prof = plan._profiles[(record.source, record.dest)]
    assert prof.windows is not None
    assert all(cached is state for cached, state in zip(prof.windows, early))
    assert early[0].window == 7.5
    assert sum(state.inflight for state in early) == pytest.approx(payment.inflight)
    assert payment.inflight > 0
    plan.assert_drained()


def test_same_tick_settle_then_lock_ordering():
    """Resolution flushes and polls landing on one tick stay ordered.

    With ``confirmation_delay == poll_interval`` every unit's maturity
    tick coincides with a poll tick, so each poll's cohort relocks value
    released by the same tick's settlement flush.  Batched replay and
    sequential attempts must sequence the two identically.
    """
    config = _config(
        topology="ripple-small",
        num_transactions=200,
        confirmation_delay=0.25,
        poll_interval=0.25,
        **FEES,
    )
    _assert_modes_agree(config)


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

    # Forge a staged send the cohort "forgot" to flush.
    paths = scheme.path_cache.paths(records[0].source, records[0].dest)
    assert paths
    cpath = network.path_table.compile(paths[0])
    payment = session._new_payment(records[0])
    plan._staged_payments.append(payment)
    plan._staged_cpaths.append(cpath)
    plan._staged_amounts.append(1.0)
    plan._staged_fees.append(0.0)
    plan._staged_hop_amounts.append([1.0] * len(cpath))
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


@pytest.mark.parametrize(
    "residue", ["_bal", "_infl", "_sent", "_refund_deltas", "_seeded"]
)
def test_finish_asserts_overlay_dropped(residue):
    """An overlay that outlives its cohort fails the run too: nothing is
    stranded, but the next cohort would decide on stale balances."""
    config = _config(topology="ripple-small", num_transactions=40)
    plan = _prepared(config)._dispatch
    plan.assert_drained()  # clean after prepare()
    if residue == "_seeded":
        plan._seeded = True
    else:
        getattr(plan, residue)[0] = 1
    with pytest.raises(SimulationError) as excinfo:
        plan.assert_drained()
    name = residue.lstrip("_")
    assert f"{name}=1" in str(excinfo.value)
    plan.assert_drained()  # dropped by the failing call


#: A line of seven nodes: channel ``i`` joins nodes ``i`` and ``i + 1``,
#: 100 spendable on either side.
_LINE_CONFIG = dict(topology="line-7", num_transactions=1, capacity=200.0)
_lock_amount = st.floats(min_value=0.001, max_value=70.0, allow_nan=False)
_lock = st.tuples(
    st.integers(0, 6),
    st.integers(0, 6),
    st.lists(_lock_amount, min_size=6, max_size=6),
).filter(lambda lock: lock[0] != lock[1])


@settings(max_examples=80, deadline=None)
@given(
    locks=st.lists(_lock, min_size=1, max_size=8),
    frozen=st.sets(st.integers(0, 5), max_size=2),
)
@example(locks=[(0, 3, [200.0] * 6)], frozen=set())  # under-funded at hop 0
@example(locks=[(0, 3, [5.0, 5.0, 200.0] + [1.0] * 3)], frozen=set())  # hop 2
@example(locks=[(6, 2, [5.0] * 6)], frozen={5})  # frozen hop 0
@example(locks=[(6, 2, [5.0] * 6), (0, 6, [7.0] * 6)], frozen={3})  # frozen hop 2
@example(  # two successes drain hop 1, the third bounces there
    locks=[(0, 4, [60.0] * 6), (1, 3, [39.5] * 6), (0, 2, [0.3, 0.6] + [1.0] * 4)],
    frozen=set(),
)
def test_replay_lock_matches_lock_path_funds(locks, frozen):
    """``_replay_lock`` + flush ⇔ ``lock_path_funds``, on the store itself.

    A sequence of locks over random trails with random per-hop amounts —
    some funded, some bouncing off a frozen or under-funded hop ``k``
    (``k = 0``: traceless; ``k > 0``: lock-then-rollback side effects on
    hops ``0..k-1``) — is replayed against the seeded overlay and flushed
    once; its twin store takes the same locks eagerly.  Same six arrays,
    bit for bit.
    """
    session = _prepared(_config(**_LINE_CONFIG))
    twin = _config(**_LINE_CONFIG).build_simulation_inputs()[0]
    for network in (session.network, twin):
        for cid in sorted(frozen):
            network.channel(cid, cid + 1).freeze()
    plan = session._dispatch
    table = session.network.path_table
    paths = [
        tuple(range(a, b + 1)) if a < b else tuple(range(a, b - 1, -1))
        for a, b, _ in locks
    ]
    payment = Payment(
        payment_id=10**6, source=0, dest=6, amount=1e9, arrival_time=0.0
    )
    plan._cohort_probes = [table.probe_handle(sorted(set(paths)))]
    plan._open_overlay()
    for path, (_, _, amounts) in zip(paths, locks):
        cpath = table.compile(path)
        required = amounts[: len(cpath)]
        actuals = plan._replay_lock(cpath, required)
        twin_dirs = twin.path_table.compile(path).dir_list
        try:
            expected = twin.state_store.lock_path_funds(twin_dirs, required)
        except InsufficientFundsError:
            assert actuals is None
            continue
        assert actuals == expected
        plan._stage_send(
            payment, cpath, required[-1], required[0] - required[-1], actuals
        )
    plan._flush()
    plan.assert_drained()
    _assert_same_store(
        _store_arrays(session.network.state_store),
        _store_arrays(twin.state_store),
    )


def test_truncated_horizon_still_finishes_clean():
    """An ``end_time`` cutting the trace mid-flight finishes without
    tripping the drain assertions, batched and sequential, identically."""
    _assert_modes_agree(
        _config(topology="ripple-small", num_transactions=250, end_time=1.5, **FEES)
    )
