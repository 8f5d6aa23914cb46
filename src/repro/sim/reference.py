"""The reference engine: one event heap over ``DeviceRuntime`` objects.

``SimulationConfig(vectorized_dispatch=False)`` runs the reference every
identity gate holds the fleet engine (:mod:`repro.sim.fleet`) to, written
to be read, not to be fast: one event heap popped one event at a time
through one handler table, over one :class:`~repro.sim.device.DeviceRuntime`
per device.  Idle devices are a plain set of ids; a dispatch sweep walks it
in ascending device-id order and offers each device that may take a task
and whose eligibility signature meets a requirement still pending.  The
golden regression tests pin the resulting assignment sequences.

The request lifecycle — arrivals, round open/complete/abort, the consult —
is :class:`~repro.sim.engine.Simulator`'s, shared with the fleet engine.
"""

from __future__ import annotations

from typing import Dict, Set

from ..core.requirements import intern_signatures, signature_of
from ..core.types import ResourceRequest
from .device import DeviceRuntime, DeviceStatus
from .engine import Simulator
from .events import Event, EventType


class ReferenceSimulator(Simulator):
    """The single-queue engine: the spec of the simulator's decisions."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Ids of the devices whose status is IDLE.
        self._idle: Set[int] = set()
        #: The device state: one ``DeviceRuntime`` per device, by id.
        self._devices: Dict[int, DeviceRuntime] = {
            d.device_id: DeviceRuntime(profile=d) for d in self._device_profiles
        }
        # The exact per-device walk, not the fleet engine's vectorised
        # kernel: the twin tests compare the two.
        self._bind(
            self._device_profiles,
            *intern_signatures(
                [
                    signature_of(device.profile, self._requirements)
                    for device in self._devices.values()
                ]
            ),
        )

    def _start(self) -> None:
        """Queue the job arrivals, then every session's check-in and
        checkout, one heap push each."""
        self._push_arrivals()
        for start, device_id, end in self.availability.checkin_events():
            if start >= self.config.horizon:
                continue
            self.queue.push(
                start, EventType.DEVICE_CHECKIN, device_id=device_id, session_end=end
            )
            self.queue.push(
                min(end, self.config.horizon),
                EventType.DEVICE_CHECKOUT,
                device_id=device_id,
                session_end=end,
            )

    def _loop(self, hook: bool) -> None:
        handlers = {
            EventType.JOB_ARRIVAL: self._on_job_arrival,
            EventType.DEVICE_CHECKIN: self._on_device_checkin,
            EventType.DEVICE_CHECKOUT: self._on_device_checkout,
            EventType.DEVICE_RESPONSE: self._on_device_response,
            EventType.REQUEST_DEADLINE: self._on_request_deadline,
        }
        while self._unfinished_jobs:
            event = self.queue.pop()
            if event is None or event.time > self.config.horizon:
                break
            self._check_event_budget()
            self.now = event.time
            handlers[event.type](event)
            self._events_processed += 1
            if hook:
                self._post_event_hook()

    # ------------------------------------------------------------------ #
    # Device event handlers
    # ------------------------------------------------------------------ #
    def _on_device_checkin(self, event: Event) -> None:
        device = self._devices[event.device_id]
        session_end = event.session_end
        if device.status is DeviceStatus.BUSY:
            # The previous task overran into this session; treat the new
            # session as extending the device's online window.
            device.session_end = max(device.session_end, session_end)
            return
        device.check_in(self.now, session_end)
        self._idle.add(device.device_id)
        self._metrics.total_checkins += 1
        self.policy.on_device_checkin(device.device_id, self.now)
        # Only consult the policy when some request actually has unmet
        # demand: with no pending demand every shipped policy provably
        # returns None (they filter on remaining_demand > 0 before drawing
        # any randomness), and a dirty scheduling plan is refreshed at the
        # next demand-creating trigger anyway — so skipping the call cannot
        # change a decision, it only avoids dead work during the long
        # collection phases of large rounds.
        if self._pending and device.can_take_task(
            self.now, self.config.enforce_daily_limit
        ):
            self._try_assign(device)

    def _on_device_checkout(self, event: Event) -> None:
        device = self._devices[event.device_id]
        session_end = event.session_end
        if device.status is DeviceStatus.BUSY:
            return  # resolved when the task finishes
        if device.is_online and device.session_end <= session_end:
            device.check_out()
            self._idle.discard(device.device_id)

    def _on_device_response(self, event: Event) -> None:
        """A device's task ended."""
        device = self._devices[event.device_id]
        success = event.success
        request = self._requests.get(event.request_id)
        if request is not None:
            request.in_flight -= 1
        device.finish_task(self.now)
        if device.is_idle:
            self._idle.add(device.device_id)
        if success:
            self._metrics.total_responses += 1
        else:
            self._metrics.total_failures += 1

        if success and request is not None and request.is_open:
            request.record_response(device.device_id)
            self.policy.on_response(request, device.device_id, self.now)
            self._maybe_complete_request(request)
        elif request is not None and not request.is_open:
            # The round was aborted (or cancelled) while this device was still
            # computing; its work is discarded, so it keeps its daily budget.
            device.last_participation_day = None
            if request.in_flight == 0:
                self._evict_request(request)

        # A freed device may immediately serve another job (when the daily
        # limit permits and some request has unmet demand — see the
        # matching guard in ``_on_device_checkin``).
        if self._pending and device.can_take_task(
            self.now, self.config.enforce_daily_limit
        ):
            self._try_assign(device)

    def _refund_aborted(self, request: ResourceRequest) -> None:
        for device_id in request.assigned_ids:
            device = self._devices[device_id]
            if device.status is not DeviceStatus.BUSY:
                device.last_participation_day = None

    # ------------------------------------------------------------------ #
    # Assigning devices
    # ------------------------------------------------------------------ #
    def _try_assign(self, device: DeviceRuntime) -> None:
        request = self._consult(device.device_id)
        if request is None:
            return
        job = self.jobs[request.job_id]
        device.start_task(self.now)
        self._idle.discard(device.device_id)

        duration, dropped = self.latency.sample_outcome(
            job.spec, device.profile, now=self.now
        )
        finishes_in_session = self.now + duration <= device.session_end
        success = (not dropped) and finishes_in_session
        if success:
            finish_time = self.now + duration
        else:
            # A dropout is detected either when the task would have finished
            # or when the device goes offline, whichever comes first.
            finish_time = min(self.now + duration, max(device.session_end, self.now))
        self.queue.push(
            finish_time,
            EventType.DEVICE_RESPONSE,
            device_id=device.device_id,
            request_id=request.request_id,
            success=success,
        )

    def _dispatch_idle_devices(self) -> None:
        """Walk the idle set in ascending id order, re-reading the pending
        names after each offer so the rest of the walk narrows as
        requirements fill."""
        pending = self._pending
        if not pending:
            return
        daily = self.config.enforce_daily_limit
        devices = self._devices
        names = pending.pending_requirements()
        version = pending.names_version
        for device_id in sorted(self._idle):
            if not pending:
                break
            if pending.names_version != version:
                version = pending.names_version
                names = pending.pending_requirements()
            device = devices[device_id]
            if device.can_take_task(self.now, daily) and (
                self._signature(device_id) & names
            ):
                self._try_assign(device)


__all__ = ["ReferenceSimulator"]
