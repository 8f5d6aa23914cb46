"""The fleet engine: a coordinator and one device stream over arrays.

``SimulationConfig()`` (``vectorized_dispatch=True``, the default) runs
this engine: a coordinator (scheduler state, plan maintenance, the request
lifecycle of :class:`~repro.sim.engine.Simulator`, the global decision
order) and one device stream (:mod:`repro.sim.stream`) holding the fleet's
availability events as sorted arrays and its response heap.  Device state
is struct-of-arrays (:mod:`repro.sim.vector`) and a device is its slot;
long demand-free static runs fold through one batched kernel and every
other static event is drained one at a time, idle dispatch is a mask over
the arrays and policies offering ``assign_batch_bulk`` are consulted a
cohort at a time.  The stream and the coordinator queue merge by
``(time, seq)`` with the exact sequence enumeration of the reference
engine (:mod:`repro.sim.reference`), so **decisions and metrics are
bit-identical to the reference** — enforced by twin-run property tests,
the golden fixtures and the decision/metrics hashes of
``tests/sim/test_engine_matrix.py``.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from ..core.requirements import compute_signatures
from ..core.types import ResourceRequest
from .device import SECONDS_PER_DAY, day_index
from .engine import Simulator
from .events import EventType
from .stream import INF_KEY, DeviceStream, build_stream
from .vector import STATUS_BUSY, STATUS_IDLE, STATUS_OFFLINE, VectorDeviceState


class FleetSimulator(Simulator):
    """The coordinator loop over one device stream and the device arrays."""

    #: A demand-free static slice longer than this folds through the
    #: :meth:`VectorDeviceState.fold_slice` kernel; every other slice is
    #: drained one event at a time (:meth:`_drain_events`).  A kernel call
    #: costs a fixed handful of numpy calls whatever its length, a drained
    #: event a few Python operations, so the short slices between
    #: responses in contended stretches are cheaper drained.  Both paths
    #: make the same transitions, so the cutoff moves wall time only,
    #: never results.
    _FOLD_CUTOFF = 64

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The device stream and the device arrays, built by :meth:`_start`
        #: so their construction is part of the measured run.  A device is
        #: its slot here.
        self._stream: Optional[DeviceStream] = None
        self._vec: Optional[VectorDeviceState] = None
        #: Deferred assignments awaiting their batched latency draw:
        #: ``(slot, request, seq, session_end)``.
        self._assign_buf: list = []
        #: Bulk decision path: policies exposing ``assign_batch_bulk``
        #: (Venn) resolve a whole dispatch cohort in one call and the
        #: engine commits the proposals in bulk.  ``None`` — a policy
        #: without the hook — keeps every sweep on per-device consults.
        self._policy_bulk_assign = getattr(self.policy, "assign_batch_bulk", None)

    def _start(self) -> None:
        """Build the device stream and seed the coordinator queue.

        Job arrivals claim sequence numbers ``0..J-1`` exactly like the
        reference engine's initial pushes; the stream then claims two
        numbers per availability session (assigned in session-sort order at
        build time), and the coordinator counter is advanced past them so
        every later dynamic event — response, deadline — sorts identically
        to its reference twin.
        """
        arrivals = self._push_arrivals()
        self._stream, consumed = build_stream(
            self._device_profiles.device_id,
            self.availability,
            self.config.horizon,
            seq_start=arrivals,
        )
        self.queue.reserve(consumed)
        # Signatures in one vectorised pass, bound to the policy with the
        # fleet in slot order: a slot is the device's row there.
        vec = self._vec = VectorDeviceState(
            self._device_profiles,
            *compute_signatures(self._device_profiles, self._requirements),
        )
        self._bind(vec.profiles, vec.sig_id, vec.sig_table)

    def _loop(self, hook: bool) -> None:
        """The device stream against the coordinator queue.

        Events are processed in ascending ``(time, seq)`` order across the
        two sources — the exact order the reference engine processes
        them.  Runs of consecutive static device events are drained as a
        batch up to the next coordinator event; response events and
        coordinator events go through the per-event path because they can
        schedule work on either source.
        """
        horizon = self.config.horizon
        queue = self.queue
        stream = self._stream
        while self._unfinished_jobs:
            head = stream.head_key()
            q_key = queue.peek_key() or INF_KEY
            if head < q_key:
                if head[0] > horizon:
                    break
                self._check_event_budget()
                if not (stream.heap and stream.heap[0][:2] == head):
                    # Static run: drain the check-in/checkout batch up to
                    # the next coordinator event.
                    self._drain_stream(stream, q_key, horizon)
                    if hook:
                        self._post_event_hook()
                    continue
                # Dynamic stream event: a device response.
                t, _seq, slot, request_id, success = heapq.heappop(stream.heap)
                self.now = t
                self._on_stream_response(slot, request_id, success)
            else:
                if q_key[0] > horizon:
                    break
                self._check_event_budget()
                # Coordinator event: job arrival or request deadline.
                event = queue.pop()
                self.now = event.time
                if event.type is EventType.JOB_ARRIVAL:
                    self._on_job_arrival(event)
                else:
                    self._on_request_deadline(event)
            self._events_processed += 1
            if hook:
                self._post_event_hook()

    # ------------------------------------------------------------------ #
    # Hot path: the static drain, responses, bulk dispatch
    # ------------------------------------------------------------------ #
    def _fold_into(self, stream: DeviceStream, lo: int, hi: int) -> None:
        """Fold the demand-free static events ``[lo, hi)`` in one kernel.

        The non-busy check-ins reach the policy in event order through the
        batch hook (pinned state-identical to the per-event hook) and the
        check-in counter advances exactly as the per-event drain's would.
        """
        ci_slots, ci_times = self._vec.fold_slice(
            stream.sa_time[lo:hi],
            stream.sa_slot[lo:hi],
            stream.sa_code[lo:hi],
            stream.se_end,
        )
        n_ci = int(ci_slots.size)
        if n_ci:
            self._metrics.total_checkins += n_ci
            self.policy.on_device_checkin_batch(
                self._vec.profiles.device_id[ci_slots], ci_times
            )
        self.now = float(stream.sa_time[hi - 1])

    def _drain_events(self, stream: DeviceStream, lo: int, hi: int) -> int:
        """Drain static events ``[lo, hi)`` one at a time; return the
        position the drain stopped at.

        Replays the reference engine's handlers against the array state,
        reading the stream through its decoded window: each check-in
        transitions (busy max-extend, or re-open + policy hook + dispatch
        attempt while demand is pending), each checkout closes a covered
        idle session.  After an assignment flush, later events are
        re-checked against the response head, so a freshly scheduled
        response stops the drain exactly where the event order says it
        must.
        """
        vec = self._vec
        status = vec.status
        sess = vec.sess
        last_day = vec.last_day
        ids = vec.profiles.device_id
        heap = stream.heap
        metrics = self._metrics
        pending = self._pending
        enforce_daily = self.config.enforce_daily_limit
        policy_checkin = self.policy.on_device_checkin
        rows, off, w_hi = stream.w_rows, stream.w_lo, stream.w_hi
        flushed = False
        p = lo
        while p < hi:
            if not off <= p < w_hi:
                rows, off, w_hi = stream.refill(p)
            t, seq, slot, send, is_checkin = rows[p - off]
            if flushed and heap:
                h0 = heap[0][0]
                if t > h0 or (t == h0 and seq > heap[0][1]):
                    break
            self.now = t
            if is_checkin:
                if status[slot] == STATUS_BUSY:
                    if send > sess[slot]:
                        sess[slot] = send
                else:
                    status[slot] = STATUS_IDLE
                    sess[slot] = send
                    metrics.total_checkins += 1
                    device_id = ids.item(slot)
                    policy_checkin(device_id, t)
                    if pending and t < send and not (
                        enforce_daily
                        and last_day[slot] == int(t // SECONDS_PER_DAY)
                    ):
                        self._try_assign(slot, device_id)
                        if self._assign_buf:
                            self._flush_assignments()
                            flushed = True
            elif status[slot] == STATUS_IDLE and sess[slot] <= send:
                status[slot] = STATUS_OFFLINE
            p += 1
        return p

    def _drain_stream(
        self, stream: DeviceStream, limit: tuple, horizon: float
    ) -> None:
        """Process the stream's static events while they stay globally next.

        The batch ends at ``limit`` (the coordinator queue's next event),
        at the horizon, at the event budget, or as soon as one of the
        stream's own response events becomes due (responses go through the
        per-event path).  Static device events mutate only the device
        arrays and the check-in counter, plus the coordinator's supply
        estimator and, when demand is pending, one assignment decision for
        the checking-in device itself; none of that can make a coordinator
        event earlier, which is what makes the batch safe.

        The slice bound (``limit``, the horizon, the stream's own response
        head) is resolved once by binary search instead of per event.  A
        demand-free slice longer than :attr:`_FOLD_CUTOFF` folds in one
        kernel: only coordinator events and responses create demand, so it
        stays assignment-free to its end.  Every other slice goes through
        :meth:`_drain_events`, which stops early when an assignment
        schedules a response ahead of the remaining static events.
        """
        lo = stream.cursor
        heap = stream.heap
        bt, bs = limit
        if heap:
            h0, h1 = heap[0][0], heap[0][1]
            if h0 < bt or (h0 == bt and h1 < bs):
                # Static events must stay strictly before the response.
                bt, bs = h0, h1 - 1
        # The fleet loop drains only when the next static event is the
        # globally next event, so the slice is never empty and its end
        # is found by binary search on the columns.
        if bt > horizon:
            hi = int(stream.sa_time.searchsorted(horizon, "right"))
        else:
            hi = stream.events_through(bt, bs)
        # Stop at the budget; the loop's next valve check raises if the
        # run needs another event.
        hi = min(hi, lo + self.config.max_events - self._events_processed)
        if self._pending or hi - lo <= self._FOLD_CUTOFF:
            end = self._drain_events(stream, lo, hi)
        else:
            self._fold_into(stream, lo, hi)
            end = hi
        stream.cursor = end
        self._events_processed += end - lo

    def _on_stream_response(
        self, slot: int, request_id: int, success: bool
    ) -> None:
        """A device's task ended; the heap rows carry its slot."""
        vec = self._vec
        request = self._requests.get(request_id)
        now = self.now
        device_id = vec.profiles.device_id.item(slot)
        if request is not None:
            request.in_flight -= 1
        if success:
            self._metrics.total_responses += 1
        else:
            self._metrics.total_failures += 1
        # The session end cannot change inside this handler (folds never
        # run here), so one array read serves both the status transition
        # and the re-dispatch guard.  The status itself is re-read below:
        # completing a round can run a dispatch sweep that assigns this
        # very slot.
        sess_open = now < vec.sess[slot]
        vec.status[slot] = STATUS_IDLE if sess_open else STATUS_OFFLINE
        if success and request is not None and request.is_open:
            request.record_response(device_id)
            self.policy.on_response(request, device_id, now)
            self._maybe_complete_request(request)
        elif request is not None and not request.is_open:
            # Aborted round: the device keeps its daily budget.
            vec.last_day[slot] = -1
            if request.in_flight == 0:
                self._evict_request(request)
        if (
            sess_open
            and self._pending
            and vec.status[slot] == STATUS_IDLE
            and not (
                self.config.enforce_daily_limit
                and vec.last_day[slot] == int(now // SECONDS_PER_DAY)
            )
        ):
            self._try_assign(slot, device_id)
            self._flush_assignments()

    def _refund_aborted(self, request: ResourceRequest) -> None:
        vec = self._vec
        slots = vec.profiles.rows(list(request.assigned_ids))
        vec.last_day[slots[vec.status[slots] != STATUS_BUSY]] = -1

    def _try_assign(self, slot: int, device_id: int) -> None:
        """The shared consult (:meth:`_consult`) of the device at ``slot``,
        the state transition on the arrays, and the latency draw deferred
        to :meth:`_flush_assignments` (the response's sequence number is
        claimed here, in decision order)."""
        vec = self._vec
        request = self._consult(device_id)
        if request is None:
            return
        vec.status[slot] = STATUS_BUSY
        vec.last_day[slot] = int(self.now // SECONDS_PER_DAY)
        self._assign_buf.append(
            (slot, request, self.queue.next_seq(), float(vec.sess[slot]))
        )

    def _flush_assignments(self) -> None:
        """Draw outcomes for the buffered assignments and queue responses.

        Scheduling a response never influences a later decision within the
        same dispatch sweep (it only lands on the response heap), so deferring
        the draws to one batched kernel is decision-identical to the
        reference engine's draw-per-assignment — sequence numbers were
        already claimed in assignment order.
        """
        buf = self._assign_buf
        if not buf:
            return
        self._assign_buf = []
        now = self.now
        schedule_response = self._stream.schedule_response
        fleet = self._vec.profiles
        jobs = self.jobs
        slots = [entry[0] for entry in buf]
        outcomes = self.latency.sample_outcomes_batch(
            [jobs[entry[1].job_id].spec for entry in buf],
            fleet.device_id[slots],
            fleet.speed_factor[slots],
            fleet.reliability[slots],
            now=now,
        )
        for (slot, request, seq, send), (duration, dropped) in zip(buf, outcomes):
            finishes_in_session = now + duration <= send
            success = (not dropped) and finishes_in_session
            if success:
                finish_time = now + duration
            else:
                finish_time = min(now + duration, max(send, now))
            schedule_response(finish_time, seq, slot, request.request_id, success)

    def _dispatch_idle_devices(self) -> None:
        """Mask-based twin of the reference engine's idle-set walk.

        The candidate mask (idle, session open, daily budget available,
        signature intersects a pending requirement) enumerates exactly the
        devices the walk offers, in the same ascending device-id order
        (slots are id-ranked); the pending-name narrowing on
        ``names_version`` changes mirrors the walk's re-read of the
        pending names.

        When the policy offers ``assign_batch_bulk`` every sweep goes
        through it, whatever the cohort size
        (:meth:`_dispatch_cohort_batched`): one plan refresh and one
        candidate resolution per interned signature instead of per device,
        decisions bit-identical to per-device consults (the differential
        suite and the engine-matrix unbatched twins hold the line).
        Policies without the hook get the per-device consult loop below,
        which is also the bulk path's oracle.
        """
        pending = self._pending
        if not pending:
            return
        vec = self._vec
        now = self.now
        names = pending.pending_requirements()
        version = pending.names_version
        elig = vec.sig_eligibility(names)
        sig_id = vec.sig_id
        status = vec.status
        # Filter on the (usually small) idle subset rather than running
        # every predicate over the full device population: one full-width
        # compare + nonzero, then per-idle-slot narrowing.
        idle = np.nonzero(status == STATUS_IDLE)[0]
        if idle.size:
            keep = vec.sess[idle] > now
            if self.config.enforce_daily_limit:
                keep &= vec.last_day[idle] != day_index(now)
            keep &= elig[sig_id[idle]]
            idle = idle[keep]
        queue = idle
        if self._policy_bulk_assign is not None:
            self._dispatch_cohort_batched(queue, version)
            self._flush_assignments()
            return
        qlist = queue.tolist()
        i = 0
        n = len(qlist)
        while i < n:
            if not pending:
                break
            if pending.names_version != version:
                # Demand narrowed mid-sweep: re-filter the unvisited
                # remainder in one array op instead of re-checking
                # eligibility per slot as the reference walk does.
                version = pending.names_version
                names = pending.pending_requirements()
                elig = vec.sig_eligibility(names)
                queue = queue[i:]
                queue = queue[elig[sig_id[queue]]]
                qlist = queue.tolist()
                n = len(qlist)
                i = 0
                continue
            slot = qlist[i]
            i += 1
            if status[slot] != STATUS_IDLE:
                continue
            self._try_assign(slot, vec.profiles.device_id.item(slot))
        self._flush_assignments()

    def _dispatch_cohort_batched(self, queue, version: int) -> None:
        """Drive one dispatch sweep through ``policy.assign_batch_bulk``.

        The cohort is the already-filtered idle queue in ascending slot
        (= device-id) order — exactly the per-device sweep's offer order.
        It is fed to the policy one chunk at a time.  The per-device sweep
        re-checks ``names_version`` before *every* consult; the batch gets
        the same semantics by construction: the name set can only narrow
        as the result of a commit (a job's demand emptying), and the
        policy's walk stops at the first demand-zeroing proposal, so the
        engine commits, re-filters the unvisited remainder in one array op
        and resumes — no device the narrowed name set excludes is ever
        consulted.  Buffered proposals are flushed once by the
        caller: responses only land on the response heap and never
        influence a decision within the sweep.
        """
        pending = self._pending
        vec = self._vec
        sig_id = vec.sig_id
        now = self.now
        bulk = self._policy_bulk_assign
        i = 0
        n = queue.size
        while i < n and pending:
            if pending.names_version != version:
                version = pending.names_version
                elig = vec.sig_eligibility(pending.pending_requirements())
                queue = queue[i:]
                queue = queue[elig[sig_id[queue]]]
                n = queue.size
                i = 0
                continue
            # The walk stops itself at the first demand-zeroing proposal,
            # so chunks can be generous: the consulted prefix bounds the
            # policy's work, and the chunk width only two array gathers.
            chunk = queue[i : i + min(n - i, 8192)]
            device_ids = vec.profiles.device_id[chunk].tolist()
            chunk = chunk.tolist()
            consumed, proposals = bulk(device_ids, now)
            if proposals:
                self._commit_cohort(chunk, device_ids, proposals)
            if consumed == 0:
                # No open requests on the policy side (a consumed cohort
                # always advances): nothing left to offer.
                break
            i += consumed

    def _commit_cohort(self, slots, device_ids, proposals) -> None:
        """Bulk twin of the commit tail of :meth:`_try_assign`.

        ``proposals`` is the ledger-validated output of
        ``assign_batch_bulk`` — every request is open with enough demand
        for its share of the cohort and no device repeats, so the
        per-device commit's silently-skip guards cannot fire, and
        candidates from the indexed plan are eligible by construction
        (signature containment), so the per-proposal eligibility re-check
        is redundant.  Response sequence numbers are claimed per proposal
        in offer order; demand bookkeeping is applied per request in bulk.
        State after this call is identical to having interleaved
        per-device commits with the consults.
        """
        vec = self._vec
        status = vec.status
        last_day = vec.last_day
        sess = vec.sess
        buf = self._assign_buf
        next_seq = self.queue.next_seq
        now = self.now
        day = int(now // SECONDS_PER_DAY)
        jobs = self.jobs
        pending = self._pending
        #: request_id -> (request, [device_ids]) accumulated in order.
        grouped: dict = {}
        for i, request in proposals:
            slot = slots[i]
            device_id = device_ids[i]
            entry = grouped.get(request.request_id)
            if entry is None:
                if request.job_id not in jobs:
                    raise ValueError(
                        f"policy assigned device {device_id} to "
                        f"unknown job {request.job_id}"
                    )
                grouped[request.request_id] = entry = (request, [])
            entry[1].append(device_id)
            status[slot] = STATUS_BUSY
            last_day[slot] = day
            buf.append((slot, request, next_seq(), float(sess[slot])))
        for request, device_ids in grouped.values():
            request.record_assignments_bulk(device_ids, now)
            if request.remaining_demand == 0:
                pending.remove(request.job_id)


__all__ = ["FleetSimulator"]
