"""Struct-of-arrays device state: the fleet engine's only device state.

The fleet engine (``SimulationConfig(vectorized_dispatch=True)``) keeps
no per-device :class:`~repro.sim.device.DeviceRuntime` object at all: the
whole fleet's dynamic state lives in parallel numpy arrays indexed by
*slot* (the device's rank in ascending device-id order), and the
slot is the only name the engine has for a device:

* ``status`` — 0 offline / 1 idle / 2 busy (``int8``),
* ``sess`` — end of the current availability session,
* ``last_day`` — calendar day of the last participation (``-1`` = never),
* ``sig_id`` — index into the interned eligibility-signature table.

Long runs of static check-in/checkout events with no pending demand (so
no assignment can happen) are *folded* into the arrays by
:meth:`VectorDeviceState.fold_slice` — one batched kernel instead of a
per-event Python loop; every other static event is drained one at a time
against the same arrays.  Idle-device dispatch becomes a boolean mask over
the arrays instead of an idle-set walk.  The per-event path stays the
decision-hash oracle — end to end the single-queue engine (one heap, one
``DeviceRuntime`` per device, one handler call per event), and inside this
engine the per-event drain: every kernel here is written to be
*bit-identical* to replaying the same events one at a time (see the
method docstrings for the per-kernel arguments, and
``docs/PERFORMANCE.md`` for the end-to-end contract).
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from ..core.types import DeviceFleet, DeviceProfile

#: Integer encodings of :class:`~repro.sim.device.DeviceStatus` in ``status``.
STATUS_OFFLINE = 0
STATUS_IDLE = 1
STATUS_BUSY = 2


class VectorDeviceState:
    """Fleet-wide device runtime state as parallel numpy arrays.

    Slots are assigned in ascending device-id order, so ``np.nonzero`` over
    a slot mask enumerates devices in exactly the ascending-id order the
    scalar dispatch paths use.
    """

    def __init__(
        self,
        profiles: Sequence[DeviceProfile],
        sig_ids: np.ndarray,
        sig_table: Sequence[FrozenSet[str]],
    ) -> None:
        """``sig_table[sig_ids[i]]`` is the eligibility signature of
        ``profiles[i]`` (:func:`~repro.core.requirements.compute_signatures`).

        ``profiles`` becomes a :class:`~repro.core.types.DeviceFleet` (kept
        as given when it already is one, in ascending id order); a device's
        profile is ``profiles[slot]``, built on each read."""
        fleet = DeviceFleet.of(profiles)
        sig_ids = np.asarray(sig_ids, dtype=np.int32)
        ids = fleet.device_id
        if not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            fleet, sig_ids = fleet.take(order), sig_ids[order]
        n = len(fleet)
        #: The fleet in slot order.
        self.profiles: DeviceFleet = fleet
        self.status = np.zeros(n, dtype=np.int8)
        self.sess = np.zeros(n, dtype=np.float64)
        self.last_day = np.full(n, -1, dtype=np.int64)
        self.sig_table: List[FrozenSet[str]] = list(sig_table)
        self.sig_id = sig_ids
        # Fold scratch, reset to the init values after every fold via the
        # touched slots (persistent arrays: many small folds must not pay an
        # O(num_devices) allocation each).
        self._scr_pos = np.full(n, -1, dtype=np.int64)
        self._scr_send = np.full(n, -np.inf, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def sig_eligibility(self, pending_names: set) -> np.ndarray:
        """``bool[sig_id]``: does the signature intersect a pending name?

        The vectorized twin of the single-queue walk's signature check:
        dispatch only offers devices whose signature could serve some
        pending requirement.
        """
        return np.fromiter(
            (bool(sig & pending_names) for sig in self.sig_table),
            dtype=bool,
            count=len(self.sig_table),
        )

    # ------------------------------------------------------------------ #
    # The fold kernel
    # ------------------------------------------------------------------ #
    def fold_slice(
        self,
        times: np.ndarray,
        slots: np.ndarray,
        codes: np.ndarray,
        se_end: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold a run of assignment-free static events into the arrays.

        The run is given as the stream's columns: event times, slots and
        codes (``code & 1`` marks a checkout, ``se_end[code >> 1]`` is the
        event's session end).  Session ends are gathered only where a
        bullet below reads them.

        The caller guarantees no event in the run can trigger an assignment
        (no demand is pending), so the busy set is constant across the run
        and each device's final state depends only on its own event
        subsequence:

        * busy devices: check-ins extend the session window to the max
          session end seen (checkouts are no-ops) — ``np.maximum.at``;
        * devices with a check-in: after their *last* check-in they are idle
          with that check-in's session end, and go offline iff some later
          checkout in the run carries ``session_end >= `` that value;
        * checkout-only devices: an idle device goes offline iff some
          checkout in the run carries ``session_end >=`` its current session
          end (offline devices ignore checkouts).

        Each bullet replays the scalar transition functions exactly, so the
        final arrays are bit-identical to the per-event loop.  Returns
        ``(ci_slots, ci_times)`` — the non-busy check-ins in event order —
        for the caller's metrics counter and policy batch hook.
        """
        status = self.status
        sess = self.sess
        is_checkin = (codes & 1) == 0
        busy_ev = status[slots] == STATUS_BUSY
        busy_ci = is_checkin & busy_ev
        if busy_ci.any():
            np.maximum.at(
                sess, slots[busy_ci], se_end[codes[busy_ci] >> 1]
            )
        nb_ci = is_checkin & ~busy_ev
        nb_co = ~is_checkin & ~busy_ev
        ci_slots = slots[nb_ci]
        co_slots = slots[nb_co]
        scr_pos = self._scr_pos
        scr_send = self._scr_send
        if ci_slots.size:
            np.maximum.at(scr_pos, ci_slots, np.nonzero(nb_ci)[0])
        if co_slots.size:
            co_pos = np.nonzero(nb_co)[0]
            # Only checkouts after the device's last check-in of the run can
            # end the (new) session; for checkout-only devices scr_pos is -1
            # and every checkout counts.
            after = co_pos > scr_pos[co_slots]
            if after.any():
                np.maximum.at(
                    scr_send,
                    co_slots[after],
                    se_end[codes[co_pos[after]] >> 1],
                )
        if ci_slots.size:
            # Distinct slots by a sort and an adjacent compare: a plain
            # np.unique of integers takes numpy's hash path, several times
            # slower here, and its first call imports numpy.ma.
            uci = np.sort(ci_slots)
            uci = uci[np.concatenate(([True], uci[1:] != uci[:-1]))]
            new_sess = se_end[codes[scr_pos[uci]] >> 1]
            sess[uci] = new_sess
            status[uci] = np.where(
                scr_send[uci] >= new_sess, STATUS_OFFLINE, STATUS_IDLE
            ).astype(np.int8)
        if co_slots.size:
            only = scr_pos[co_slots] < 0
            if only.any():
                uco = np.sort(co_slots[only])
                uco = uco[np.concatenate(([True], uco[1:] != uco[:-1]))]
                off = (status[uco] == STATUS_IDLE) & (
                    scr_send[uco] >= sess[uco]
                )
                if off.any():
                    status[uco[off]] = STATUS_OFFLINE
        # Reset the scratch entries this fold touched.
        if ci_slots.size:
            scr_pos[ci_slots] = -1
        if co_slots.size:
            scr_send[co_slots] = -np.inf
        return ci_slots, times[nb_ci]


__all__ = [
    "STATUS_BUSY",
    "STATUS_IDLE",
    "STATUS_OFFLINE",
    "VectorDeviceState",
]
