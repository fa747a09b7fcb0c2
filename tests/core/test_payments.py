"""Tests for the payment and transaction-unit state machines."""

from __future__ import annotations

import pytest

from repro.core.payments import Payment, PaymentState, TransactionUnit, UnitState
from repro.errors import PaymentError
from repro.network.network import PaymentNetwork


def make_payment(amount=100.0, deadline=None, atomic=False):
    return Payment(
        payment_id=1,
        source=0,
        dest=5,
        amount=amount,
        arrival_time=1.0,
        deadline=deadline,
        atomic=atomic,
    )


class TestLifecycle:
    def test_initial_state(self):
        payment = make_payment()
        assert payment.state is PaymentState.PENDING
        assert payment.remaining == 100.0
        assert payment.outstanding == 100.0
        assert not payment.is_terminal

    def test_non_positive_amount_rejected(self):
        with pytest.raises(PaymentError):
            make_payment(amount=0.0)

    def test_partial_progress(self):
        payment = make_payment()
        payment.register_inflight(30.0)
        assert payment.remaining == 70.0
        assert payment.inflight == 30.0
        payment.register_settled(30.0, now=2.0)
        assert payment.delivered == 30.0
        assert payment.outstanding == 70.0
        assert payment.state is PaymentState.PENDING

    def test_completion_on_full_delivery(self):
        payment = make_payment(amount=50.0)
        payment.register_inflight(50.0)
        payment.register_settled(50.0, now=3.5)
        assert payment.state is PaymentState.COMPLETED
        assert payment.completed_at == 3.5
        assert payment.is_complete and payment.is_terminal

    def test_cancelled_units_return_to_remaining(self):
        payment = make_payment()
        payment.register_inflight(40.0)
        payment.register_cancelled(40.0)
        assert payment.remaining == 100.0
        assert payment.inflight == 0.0

    def test_overcommit_rejected(self):
        payment = make_payment(amount=10.0)
        payment.register_inflight(10.0)
        with pytest.raises(PaymentError):
            payment.register_inflight(1.0)

    def test_settle_more_than_inflight_rejected(self):
        payment = make_payment()
        payment.register_inflight(5.0)
        with pytest.raises(PaymentError):
            payment.register_settled(6.0, now=1.0)

    def test_cancel_more_than_inflight_rejected(self):
        payment = make_payment()
        payment.register_inflight(5.0)
        with pytest.raises(PaymentError):
            payment.register_cancelled(6.0)

    def test_mark_failed(self):
        payment = make_payment()
        payment.mark_failed(now=9.0)
        assert payment.state is PaymentState.FAILED
        assert payment.failed_at == 9.0

    def test_mark_failed_after_completion_is_noop(self):
        payment = make_payment(amount=10.0)
        payment.register_inflight(10.0)
        payment.register_settled(10.0, now=1.0)
        payment.mark_failed(now=2.0)
        assert payment.state is PaymentState.COMPLETED

    def test_units_sent_counter(self):
        payment = make_payment()
        payment.register_inflight(10.0)
        payment.register_inflight(10.0)
        assert payment.units_sent == 2


class TestDeadlines:
    def test_no_deadline_never_expires(self):
        assert not make_payment().expired(1e9)

    def test_expiry_boundary(self):
        payment = make_payment(deadline=10.0)
        assert not payment.expired(10.0)
        assert payment.expired(10.1)


def make_unit(payment):
    line = PaymentNetwork()
    line.add_channel(0, 1, 100.0)
    return TransactionUnit(payment, 5.0, line.path_table.compile((0, 1)), [5.0])


class TestTransactionUnit:
    def test_state_transitions(self):
        payment = make_payment()
        unit = make_unit(payment)
        assert unit.state is UnitState.INFLIGHT
        assert unit.path == (0, 1)
        unit.mark_settled()
        assert unit.state is UnitState.SETTLED
        with pytest.raises(PaymentError):
            unit.mark_cancelled()

    def test_cancel_transition(self):
        payment = make_payment()
        unit = make_unit(payment)
        unit.mark_cancelled()
        assert unit.state is UnitState.CANCELLED
        with pytest.raises(PaymentError):
            unit.mark_settled()
