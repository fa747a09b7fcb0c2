"""Hash time-locked contract (HTLC) mechanics.

In a payment channel network, an intermediate hop only gets paid if it learns
the preimage of a hash chosen by the payment's key generator (the sender, in
Spider's non-atomic design — §4.1 of the paper).  This module models both
layers:

* :class:`HashLock` — the cryptographic object (key, hash, verification),
  implemented with SHA-256.  Spider generates a fresh key per transaction
  unit so the sender can withhold keys for units that arrive past their
  deadline.
* :class:`Htlc` — the per-channel conditional transfer record with the
  ``PENDING → SETTLED | REFUNDED`` state machine that
  :class:`~repro.network.channel.PaymentChannel` enforces.

The simulation engine models withholding as a refund decision and never
reads key material, so it mints no locks; :class:`HashLock` serves the
channel-level API (:meth:`PaymentChannel.lock
<repro.network.channel.PaymentChannel.lock>`) and its examples.
:meth:`HashLock.generate` runs in counter mode — a fixed 24-byte stream
prefix plus a 64-bit counter, unique by construction — and the SHA-256
hash value is computed lazily, only when something inspects or verifies
the lock.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ChannelError

__all__ = ["HashLock", "Htlc", "HtlcState"]

_hash_lock_counter = itertools.count()
_key_stream_prefix = hashlib.sha256(b"spider-keystream:0").digest()[:24]


class HashLock:
    """A hash lock: ``hash = SHA256(key)`` (hash computed lazily).

    The sender keeps ``key`` secret until it decides the transfer should
    complete; every hop can verify a revealed key against ``hash_value``.
    """

    __slots__ = ("key", "_hash_value")

    def __init__(self, key: bytes, hash_value: Optional[bytes] = None):
        self.key = key
        self._hash_value = hash_value

    @property
    def hash_value(self) -> bytes:
        """SHA-256 of the key, computed on first access and cached."""
        if self._hash_value is None:
            self._hash_value = hashlib.sha256(self.key).digest()
        return self._hash_value

    @classmethod
    def generate(cls, payment_id: int, sequence: int, salt: int = 0) -> "HashLock":
        """Derive a fresh lock for a transaction unit, in counter mode.

        Real implementations draw the key from a CSPRNG; the simulator
        concatenates the fixed stream prefix with a monotone 64-bit
        counter, which preserves the uniqueness property the protocol
        needs at a fraction of the former two-SHA-256 cost.  The
        ``payment_id``/``sequence``/``salt`` identity is accepted for API
        compatibility; uniqueness comes from the counter alone (the old
        derivation already relied on it to disambiguate retries).
        """
        nonce = next(_hash_lock_counter)
        return cls(key=_key_stream_prefix + nonce.to_bytes(8, "big"))

    def verify(self, key: bytes) -> bool:
        """Check whether ``key`` is the preimage of this lock's hash."""
        return hashlib.sha256(key).digest() == self.hash_value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashLock) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashLock(key={self.key.hex()[:16]}…)"


class HtlcState(enum.Enum):
    """Lifecycle of a conditional transfer on one channel."""

    PENDING = "pending"
    SETTLED = "settled"
    REFUNDED = "refunded"


@dataclass
class Htlc:
    """One hop's conditional transfer.

    ``amount`` is deducted from ``sender``'s spendable balance when the HTLC
    is created (the funds become *in-flight*, Fig. 3 of the paper).  On
    settlement the counterparty is credited; on refund the sender is
    re-credited.  Terminal states are enforced here and double transitions
    raise :class:`~repro.errors.ChannelError`.
    """

    htlc_id: int
    sender: object
    receiver: object
    amount: float
    created_at: float
    lock: Optional[HashLock] = None
    state: HtlcState = field(default=HtlcState.PENDING)

    def mark_settled(self) -> None:
        """Transition ``PENDING → SETTLED``."""
        if self.state is not HtlcState.PENDING:
            raise ChannelError(
                f"HTLC {self.htlc_id} cannot settle from state {self.state.value}"
            )
        self.state = HtlcState.SETTLED

    def mark_refunded(self) -> None:
        """Transition ``PENDING → REFUNDED``."""
        if self.state is not HtlcState.PENDING:
            raise ChannelError(
                f"HTLC {self.htlc_id} cannot refund from state {self.state.value}"
            )
        self.state = HtlcState.REFUNDED

    @property
    def pending(self) -> bool:
        """Whether the transfer is still conditional."""
        return self.state is HtlcState.PENDING
