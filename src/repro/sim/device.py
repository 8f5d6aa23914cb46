"""Per-device runtime state tracked by the simulation engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..core.types import DeviceProfile

#: Seconds per day, used for the one-job-per-day realism constraint (§5.1).
SECONDS_PER_DAY = 24 * 3600.0


def day_index(now: float) -> int:
    """Calendar day a timestamp belongs to, for the one-job-per-day budget.

    Every daily-limit decision in both engines — recording participation
    and checking the budget at check-in, response and dispatch — must agree
    on which day a timestamp falls in, or the engines would release a
    daily-spent device at different timestamps around midnight.  The
    canonical form is float floor-division, ``now // 86400.0``, which is
    computed exactly (fmod-based, no intermediate quotient rounding);
    ``numpy.floor_divide`` implements the same algorithm, which keeps the
    vectorized engine's day masks bit-identical to this scalar path at
    exact midnight boundaries and at floats one ULP below them
    (``tests/sim/test_dispatch.py`` pins both;
    ``tests/sim/test_midnight_budget.py`` holds both engines to it).
    """
    return int(now // SECONDS_PER_DAY)


class DeviceStatus(enum.Enum):
    OFFLINE = "offline"
    IDLE = "idle"
    BUSY = "busy"


@dataclass(slots=True)
class DeviceRuntime:
    """Mutable simulation state of one device.

    Wraps the immutable :class:`~repro.core.types.DeviceProfile` with the
    dynamic bits the engine needs: whether the device is online, until when,
    whether it is currently executing a task and when it last participated in
    a job (for the one-job-per-day constraint).
    """

    profile: DeviceProfile
    status: DeviceStatus = DeviceStatus.OFFLINE
    #: End of the current availability session (valid while online).
    session_end: float = 0.0
    #: Day index (floor(time / 86400)) of the last participation, or None.
    last_participation_day: Optional[int] = None
    #: The profile's device id, denormalised onto the runtime object: this
    #: is read millions of times per large run and a stored attribute beats
    #: a forwarding property on the hot path.
    device_id: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.device_id = self.profile.device_id

    @property
    def is_online(self) -> bool:
        return self.status in (DeviceStatus.IDLE, DeviceStatus.BUSY)

    @property
    def is_idle(self) -> bool:
        return self.status is DeviceStatus.IDLE

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def check_in(self, now: float, session_end: float) -> None:
        if session_end <= now:
            raise ValueError("session_end must be after check-in time")
        if self.status is DeviceStatus.BUSY:
            raise RuntimeError(
                f"device {self.device_id} cannot check in while busy"
            )
        self.status = DeviceStatus.IDLE
        self.session_end = session_end

    def check_out(self) -> None:
        """End the availability session (only while not mid-task)."""
        if self.status is DeviceStatus.BUSY:
            # The engine resolves busy devices at response/failure time; a
            # checkout while busy simply records that the session is over.
            return
        self.status = DeviceStatus.OFFLINE

    def start_task(self, now: float) -> None:
        if self.status is not DeviceStatus.IDLE:
            raise RuntimeError(
                f"device {self.device_id} must be idle to start a task "
                f"(status={self.status.value})"
            )
        self.status = DeviceStatus.BUSY
        self.last_participation_day = day_index(now)

    def finish_task(self, now: float) -> None:
        if self.status is not DeviceStatus.BUSY:
            raise RuntimeError(f"device {self.device_id} is not executing a task")
        # The device returns to the pool only if its session is still open.
        self.status = DeviceStatus.IDLE if now < self.session_end else DeviceStatus.OFFLINE

    # ------------------------------------------------------------------ #
    # Eligibility helpers
    # ------------------------------------------------------------------ #
    def participated_today(self, now: float) -> bool:
        if self.last_participation_day is None:
            return False
        return self.last_participation_day == day_index(now)

    def can_take_task(self, now: float, enforce_daily_limit: bool = True) -> bool:
        """Whether the device may be offered to a job right now."""
        if not self.is_idle:
            return False
        if now >= self.session_end:
            return False
        if enforce_daily_limit and self.participated_today(now):
            return False
        return True


__all__ = ["DeviceRuntime", "DeviceStatus", "SECONDS_PER_DAY", "day_index"]
