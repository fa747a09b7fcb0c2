"""Runtime write-ownership sanitizer for the sharded engine.

The static tier (RL006–RL009) proves structural properties; this module
checks the one invariant only execution can witness: **every store row a
shard lane writes belongs to that lane's segment**.  TSan would watch
every byte; the engine's ownership structure lets us do far better — a
channel's owner is a pure function of the partition (the segment holding
both endpoints, or the boundary for cut channels), so one int8 shadow
array over the store's rows plus an O(rows-written) compare per mutating
store call is enough.

Enable with ``REPRO_SHARD_SANITIZE=1`` (or ``ShardedSession(...,
sanitize=True)``).  The sanitizer attaches to the
:class:`~repro.engine.store.ChannelStateStore`; every mutating entry
point (``lock_many``, ``apply_resolution_batch``, ``try_lock``, the
``lock/settle/refund`` paths, ``touch`` …) asks it to vet the rows about
to be written against the executing lane:

* ``lane is None`` — no lane context (setup, unsharded runs): anything
  goes;
* ``lane == BOUNDARY_LANE`` — the boundary lane runs exclusively while
  the shard lanes hold at a barrier, so it may write any row;
* ``lane == s >= 0`` — only rows whose owner is ``s`` may be written; a
  cut-channel row (owner ``BOUNDARY_LANE``) or another segment's row is
  a violation.

A violation raises :class:`ShardViolationError` naming the lane, the
payment (when the write path annotated one) and the offending ``(cid,
side)`` — in a forked worker the error ships back over the result pipe
exactly like any other worker failure.  Overhead is a ``None`` check per
store call when detached and one fancy-indexed compare when attached,
low enough to run the sharded parity suite under it in CI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import PaymentNetwork
    from repro.topology.partition import GraphPartition

__all__ = ["BOUNDARY_LANE", "ShardSanitizer", "ShardViolationError"]

#: Owner value for cut channels; also the boundary lane's id.
BOUNDARY_LANE = -1


class ShardViolationError(SimulationError):
    """A shard lane wrote a store row its segment does not own."""

    def __init__(
        self,
        lane: int,
        payment: Optional[int],
        cid: int,
        side: Optional[int],
        owner: int,
    ):
        self.lane = lane
        self.payment = payment
        self.cid = cid
        self.side = side
        self.owner = owner
        payment_part = "?" if payment is None else str(payment)
        side_part = "?" if side is None else str(side)
        owner_part = (
            "the boundary (cut channel)" if owner == BOUNDARY_LANE
            else f"segment {owner}"
        )
        super().__init__(
            f"shard-sanitizer violation: lane {lane} (payment "
            f"{payment_part}) wrote store row (cid={cid}, side={side_part}) "
            f"owned by {owner_part}; shard lanes may only touch rows of "
            "their own segment — cross-segment effects belong to the "
            "barrier-serialised boundary lane"
        )


class ShardSanitizer:
    """Shadow owner-map over store rows + per-lane write assertions."""

    __slots__ = ("owner", "_lane", "_payment", "_row_payments", "checks")

    def __init__(self, owner: np.ndarray):
        self.owner = np.asarray(owner, dtype=np.int8)
        #: Executing lane: ``None`` unrestricted, ``BOUNDARY_LANE`` or a
        #: segment id.  Per-process state: each forked worker sets its own.
        self._lane: Optional[int] = None
        #: Scalar payment attribution for the next single-row writes.
        self._payment: Optional[int] = None
        #: Per-row payment attribution consumed by the next batched check.
        self._row_payments: Optional[np.ndarray] = None
        #: Mutating store calls vetted (diagnostics / overhead accounting).
        self.checks = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_partition(
        cls, network: "PaymentNetwork", partition: "GraphPartition"
    ) -> "ShardSanitizer":
        """Owner map from the channel endpoints: a row belongs to the
        segment containing both its endpoints, else to the boundary."""
        store = network.state_store
        owner = np.full(len(store), BOUNDARY_LANE, dtype=np.int8)
        for channel in network.channels():
            seg_a = partition.segment_of(channel.node_a)
            seg_b = partition.segment_of(channel.node_b)
            if seg_a == seg_b:
                owner[channel.channel_id] = seg_a
        return cls(owner)

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    @property
    def lane(self) -> Optional[int]:
        return self._lane

    def set_lane(self, lane: Optional[int]) -> None:
        """Set the executing lane for subsequent store writes."""
        self._lane = lane
        self._row_payments = None

    def set_payment(self, payment: Optional[int]) -> None:
        """Attribute upcoming single-unit store writes to ``payment``."""
        self._payment = payment

    def annotate(self, payments: np.ndarray) -> None:
        """Attribute the next batched check's rows to ``payments[i]``."""
        self._row_payments = payments

    # ------------------------------------------------------------------
    # Checks (called by the store's mutating entry points)
    # ------------------------------------------------------------------
    def check_one(self, cid: int, side: Optional[int] = None) -> None:
        """Vet one row against the executing lane."""
        self.checks += 1
        lane = self._lane
        if lane is None or lane == BOUNDARY_LANE:
            return
        owner = int(self.owner[cid])
        if owner != lane:
            raise ShardViolationError(
                lane=lane,
                payment=self._payment,
                cid=int(cid),
                side=None if side is None else int(side),
                owner=owner,
            )

    def check_dirs(self, dirs: Sequence[int]) -> None:
        """Vet a batch of hop directions (``d = 2·cid + side``, see
        :class:`~repro.engine.store.ChannelStateStore`; an array or a list
        of ints); consumes any pending row annotation."""
        self.checks += 1
        row_payments, self._row_payments = self._row_payments, None
        lane = self._lane
        if lane is None or lane == BOUNDARY_LANE:
            return
        owners = self.owner[np.asarray(dirs, dtype=np.intp) >> 1]
        bad = owners != lane
        if not bad.any():
            return
        k = int(np.argmax(bad))
        payment = self._payment
        if row_payments is not None and len(row_payments) == len(dirs):
            payment = int(row_payments[k])
        d = int(dirs[k])
        raise ShardViolationError(
            lane=lane,
            payment=payment,
            cid=d >> 1,
            side=d & 1,
            owner=int(owners[k]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardSanitizer(rows={len(self.owner)}, lane={self._lane}, "
            f"checks={self.checks})"
        )
