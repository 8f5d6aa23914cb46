"""The event-driven collaborative-learning simulator: the request lifecycle.

The engine replays a device availability trace and a CL workload against a
pluggable scheduling policy and measures, per job, the scheduling delay,
response collection time and end-to-end completion time — the quantities the
paper's evaluation is built on (§5.1 describes the authors' simulator doing
exactly this).

Round semantics follow the paper's synchronous-CL setup:

* a job opens one resource request per round asking for ``D_i`` devices;
* devices assigned to the request start computing immediately; the
  *scheduling delay* ends when the ``D_i``-th device is assigned;
* the round succeeds once at least ``min_report_fraction × D_i`` devices
  report back (80 % in the paper) **and** the full demand was assigned;
* if that has not happened by ``submit_time + round_deadline`` the round is
  aborted and retried — the fate of rounds under heavy contention;
* the job finishes after ``num_rounds`` successful rounds; its JCT is the
  time from arrival to the last round's completion.

Devices obey the availability trace (they can only be assigned while online,
and drop out when their session ends mid-task) and, by default, the paper's
one-job-per-day realism constraint.

One lifecycle, two engines
--------------------------

:class:`Simulator` holds what both engines share: construction and
validation, the request lifecycle (job arrival, round open, completion and
abort, eviction, the per-device consult), the event budget, checkpoints,
snapshots and the end-of-run metrics.  ``Simulator(...)`` builds one of two
engines, chosen once, at construction, by
``SimulationConfig.vectorized_dispatch``:

* ``True`` (the default): the fleet engine
  (:class:`~repro.sim.fleet.FleetSimulator`) — a coordinator and one device
  stream over struct-of-arrays device state;
* ``False``: the reference engine
  (:class:`~repro.sim.reference.ReferenceSimulator`) — one event heap, one
  ``DeviceRuntime`` per device, written to be read: the spec every identity
  gate holds the fleet engine to.

Each engine supplies its run loop, its idle-device sweep and its release of
an aborted round's daily budget.  **Decisions and metrics are bit-identical
on both** — enforced by twin-run property tests, the golden fixtures and the
decision/metrics hashes of ``tests/sim/test_engine_matrix.py``.  See
``docs/ARCHITECTURE.md`` for the determinism contract.

Randomness splits in two: device latency/failure draws come from
per-device counter-based streams keyed by ``(SimulationConfig.seed,
device_id, draw index)`` — so no draw depends on the order other devices
drew in, the property that lets the two engines batch draws differently —
while the engine's policy-facing :class:`numpy.random.Generator` (also
seeded by ``SimulationConfig.seed``) is adopted via ``bind_rng`` by any
policy that was not explicitly seeded.  One seed still determines an entire run
bit-for-bit.

Policies are only consulted while some request has unmet demand: with
nothing pending, every shipped policy provably returns ``None`` (they all
filter on ``remaining_demand > 0`` before drawing randomness), and a dirty
scheduling plan is refreshed at the next demand-creating trigger anyway,
so the engine skips the dead ``assign`` calls that previously dominated
the long collection phases of large rounds.  Custom policies must not rely
on being offered devices while they have no unmet demand.

Policies that maintain a scheduling plan (Venn) expose a
:class:`~repro.core.scheduler.PlanMaintenanceProfile`; the engine copies it
into ``SimulationMetrics.plan_maintenance`` at the end of the run, so
``python3 -m bench`` reads full rebuilds, incremental updates, index atoms
patched and plan-maintenance time without reaching into the policy.

Crash safety (``docs/RESILIENCE.md``)
-------------------------------------

:meth:`Simulator.snapshot` pickles the full simulator graph at an event
boundary and :meth:`Simulator.resume` reconstructs it; the contract is
*exact resume* — the continued run's decisions and metrics are
bit-identical to the uninterrupted twin's on both engines (the chaos
harness ``python -m repro.resilience.chaos`` enforces this).
``SimulationConfig(checkpoint_interval=N)`` snapshots every N events;
``SimulationConfig(crash_at_event=N)`` kills the coordinator with a
:class:`~repro.resilience.SimulatedCrash` once N events are processed —
both are strict no-ops when unset.
"""

from __future__ import annotations

import math
import numbers
import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from ..core.policy import SchedulingPolicy
from ..core.types import DeviceFleet, DeviceProfile, JobSpec, ResourceRequest
from ..resilience.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SimulatedCrash,
    SimulationSnapshot,
    SnapshotError,
)
from ..traces.device_trace import DeviceAvailabilityTrace
from ..traces.workloads import Workload
from .dispatch import PendingRequestPool
from .events import Event, EventQueue, EventType
from .job import JobRuntime
from .latency import LatencyConfig, ResponseLatencyModel
from .metrics import SimulationMetrics, collect_job_metrics


@dataclass
class SimulationConfig:
    """Engine-level configuration."""

    #: Simulation horizon in seconds.  Jobs unfinished at the horizon are
    #: censored (their JCT is at least ``horizon - arrival``).
    horizon: float = 4 * 24 * 3600.0
    #: Enforce the paper's one-CL-job-per-device-per-day constraint.
    enforce_daily_limit: bool = True
    #: Seed of the run's single random generator (latency model + any
    #: policy that was not explicitly seeded).
    seed: Optional[int] = None
    #: Safety valve against runaway event loops: a run may process at most
    #: this many events.
    max_events: int = 10_000_000
    #: Latency model parameters.
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    #: Engine selector.  ``True`` (the default) runs the fleet engine
    #: (:mod:`repro.sim.fleet`) — a coordinator and one device stream
    #: (:mod:`repro.sim.stream`) over struct-of-arrays device state
    #: (:mod:`repro.sim.vector`): a batched fold kernel for long
    #: demand-free check-in/checkout runs, mask-based idle dispatch,
    #: batched latency draws and — for policies offering
    #: ``assign_batch_bulk`` — bulk consults of every dispatch sweep.
    #: ``False`` runs the reference engine (:mod:`repro.sim.reference`),
    #: the spec the fleet engine is held to; only oracle tests, the
    #: fuzz/chaos twins and the benchmark's twin check select it.
    #: Decisions and metrics are **bit-identical** on both (enforced by
    #: golden fixtures, the engine-matrix blake2b gates and the scenario
    #: fuzzer's twin).
    vectorized_dispatch: bool = True
    #: Periodic checkpointing: take a full-state snapshot every N processed
    #: events (``None`` disables).  Snapshots land on the simulator's
    #: ``last_snapshot`` attribute and, if one was given, its
    #: ``checkpoint_sink`` callable.  Resuming from any checkpoint replays
    #: the uninterrupted run bit-identically — see ``docs/RESILIENCE.md``.
    checkpoint_interval: Optional[int] = None
    #: Crash injection: raise :class:`repro.resilience.SimulatedCrash` at
    #: the first event boundary with at least this many processed events,
    #: the coordinator process dying there (the chaos harness resumes it
    #: from a checkpoint).  ``None`` (the default) is a strict no-op —
    #: pristine runs replay the historical event and draw sequences exactly.
    crash_at_event: Optional[int] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite (got {self.horizon})")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        for name in ("enforce_daily_limit", "vectorized_dispatch"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(
                    f"{name} must be a bool (got {type(value).__name__} "
                    f"{value!r})"
                )
        counts = [("max_events", self.max_events)]
        for name in ("seed", "checkpoint_interval", "crash_at_event"):
            value = getattr(self, name)
            if value is not None:
                counts.append((name, value))
        for name, value in counts:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(
                    f"{name} must be an int (got {type(value).__name__} "
                    f"{value!r})"
                )
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be non-negative (or None)")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive (or None)")
        if self.crash_at_event is not None and self.crash_at_event < 0:
            raise ValueError("crash_at_event must be non-negative (or None)")


#: Sentinel for ``Simulator.resume``: keep the snapshot's crash point (so a
#: crash that had not fired at checkpoint time replays deterministically)
#: unless the caller passes another one — including ``None`` to clear it.
_KEEP_CRASH = object()


class Simulator:
    """Discrete-event CL simulator binding devices, jobs and a policy.

    ``Simulator(...)`` returns the engine ``config.vectorized_dispatch``
    names: a :class:`~repro.sim.fleet.FleetSimulator` or a
    :class:`~repro.sim.reference.ReferenceSimulator`.  Both run the request
    lifecycle defined here; each supplies :meth:`_start`, :meth:`_loop`,
    :meth:`_dispatch_idle_devices` and :meth:`_refund_aborted`.
    """

    def __new__(
        cls,
        devices=None,
        availability=None,
        workload=None,
        policy=None,
        config: Optional[SimulationConfig] = None,
        checkpoint_sink=None,
    ):
        # Unpickling calls ``cls.__new__(cls)`` on the engine class itself.
        # The engine modules import this one, hence the local imports.
        if cls is Simulator:
            from .fleet import FleetSimulator
            from .reference import ReferenceSimulator

            fleet = config is None or config.vectorized_dispatch
            cls = FleetSimulator if fleet else ReferenceSimulator
        return super().__new__(cls)

    def __init__(
        self,
        devices: Sequence[DeviceProfile],
        availability: DeviceAvailabilityTrace,
        workload: Union[Workload, Sequence[JobSpec]],
        policy: SchedulingPolicy,
        config: Optional[SimulationConfig] = None,
        checkpoint_sink: Optional[Callable[[SimulationSnapshot], None]] = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.policy = policy
        #: The run's policy-facing random generator; unseeded policies adopt
        #: it via ``bind_rng``.  The latency model does not share it: it
        #: draws from per-device streams keyed by global device id, so a
        #: device's latency/failure draws depend only on the seed, its id
        #: and its own assignment history — never on the draw order across
        #: devices.  That is what keeps the fleet engine's batched draws
        #: bit-identical to the reference engine's one-at-a-time ones.
        self.rng = np.random.default_rng(self.config.seed)
        self.latency = ResponseLatencyModel(
            self.config.latency, per_device_entropy=self.config.seed
        )
        self.policy.bind_rng(self.rng)

        if isinstance(workload, Workload):
            jobs = list(workload.jobs)
            categories = dict(workload.categories)
        else:
            jobs = list(workload)
            categories = {}
        # The workload's requirements, one per name.  A name is a
        # requirement's identity — atom spaces, the pending pool and the
        # signature tables all key by it — so two different requirements
        # sharing one are refused up front, on both engines.
        by_name: Dict[str, object] = {}
        for job in jobs:
            requirement = by_name.setdefault(job.requirement.name, job.requirement)
            if requirement != job.requirement:
                raise ValueError(
                    f"requirement name {requirement.name!r} is reused by two "
                    f"different requirements"
                )
        self._requirements = list(by_name.values())
        self._categories: Dict[int, str] = categories
        for job in jobs:
            self._categories.setdefault(job.job_id, job.requirement.name)

        #: The population as columns; on the fleet engine
        #: ``VectorDeviceState.profiles`` is this object when its ids ascend.
        self._device_profiles: DeviceFleet = DeviceFleet.of(devices)
        known = self._device_profiles.device_id
        # Sorted, not np.unique: numpy's hash path for integers is 10-15x
        # slower at 100k ids, and its first call imports numpy.ma.
        if (np.diff(np.sort(known)) == 0).any():
            raise ValueError("device ids must be unique")
        unknown = ~np.isin(availability.device_ids, known)
        if unknown.any():
            missing = sorted(set(availability.device_ids[unknown].tolist()))
            raise ValueError(
                f"availability trace references unknown devices: {missing[:5]}"
            )
        self.availability = availability
        self.jobs: Dict[int, JobRuntime] = {j.job_id: JobRuntime(spec=j) for j in jobs}
        if len(self.jobs) != len(jobs):
            raise ValueError("job ids must be unique")
        # Maintained count of jobs still running, so the main loop's
        # everything-done check is O(1) per event instead of a scan over
        # all jobs (jobs only finish inside _maybe_complete_request).
        self._unfinished_jobs = sum(
            1 for j in self.jobs.values() if not j.is_finished
        )

        self.queue = EventQueue()
        self.now = 0.0
        self._request_counter = 0
        self._requests: Dict[int, ResourceRequest] = {}
        self._deadline_events: Dict[int, Event] = {}
        self._pending = PendingRequestPool()
        #: ``(fleet, sig_ids, sig_table)``: the population and its
        #: eligibility signatures over ``_requirements``, as handed to the
        #: policy (``bind_fleet``) and read by the engine's own checks.
        self._binding: Optional[tuple] = None
        self._metrics = SimulationMetrics(
            policy=getattr(policy, "name", type(policy).__name__),
            horizon=self.config.horizon,
        )
        self._events_processed = 0
        # -------------------------------------------------------------- #
        # Crash safety (docs/RESILIENCE.md)
        # -------------------------------------------------------------- #
        #: Receives each periodic SimulationSnapshot; not pickled into
        #: snapshots (reattach one via ``resume(checkpoint_sink=...)``).
        self._checkpoint_sink = checkpoint_sink
        #: The most recent snapshot (periodic or explicit ``snapshot()``).
        self.last_snapshot: Optional[SimulationSnapshot] = None
        #: Whether ``run`` already performed its one-time setup
        #: (:meth:`_start`).  Snapshotted, so a resumed run continues
        #: mid-stream instead of re-seeding the queues.
        self._started = False
        #: Whether the run already completed and finalised its metrics.
        #: ``run`` on a finished simulator (e.g. one resumed from a
        #: post-run snapshot) is then a no-op returning the final metrics
        #: — re-entering the loop would pop leftover queued events into
        #: the already-final totals.
        self._finished = False
        #: Event count at the last periodic checkpoint (or run start).
        self._ckpt_last_events = 0
        self.checkpoints_taken = 0
        self.checkpoint_time_s = 0.0

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationMetrics:
        """Run the simulation to the horizon and return aggregate metrics."""
        if self._finished:
            return self._metrics
        if not self._started:
            # Here, not in __init__, so the setup is part of the measured run.
            self._started = True
            self._start()
        # One pristine-path branch per event: with no checkpointing and no
        # crash point the loop body is byte-for-byte the historical one.
        self._loop(
            self.config.checkpoint_interval is not None
            or self.config.crash_at_event is not None
        )
        self._finalise()
        self._finished = True
        return self._metrics

    def _start(self) -> None:
        """Seed the event sources (once per run, before the first event)."""
        raise NotImplementedError

    def _loop(self, hook: bool) -> None:
        """Process events in ``(time, seq)`` order while a job is
        unfinished, up to the horizon or the last event; with ``hook`` set,
        call :meth:`_post_event_hook` at every event boundary."""
        raise NotImplementedError

    def _push_arrivals(self) -> int:
        """Queue every job arriving within the horizon; returns how many.

        Job arrivals claim sequence numbers ``0..J-1`` on both engines,
        ahead of every device event.
        """
        horizon = self.config.horizon
        arrivals = 0
        for job in self.jobs.values():
            if job.spec.arrival_time <= horizon:
                self.queue.push(
                    job.spec.arrival_time, EventType.JOB_ARRIVAL, job_id=job.job_id
                )
                arrivals += 1
        return arrivals

    def _check_event_budget(self) -> None:
        """The ``max_events`` valve: called before an event is processed,
        it raises when that event would be one more than the limit."""
        if self._events_processed >= self.config.max_events:
            raise RuntimeError(
                "simulation exceeded max_events; check for livelock or "
                "raise SimulationConfig.max_events"
            )

    @property
    def events_processed(self) -> int:
        """Number of events handled so far (exposed for benchmarks)."""
        return self._events_processed

    # ------------------------------------------------------------------ #
    # Checkpoint / restore (docs/RESILIENCE.md)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The sink is the caller's liveness, not simulation state: a
        # snapshot must not drag a closure (often unpicklable) along, and
        # keeping last_snapshot would nest payloads snowball-style.
        state["_checkpoint_sink"] = None
        state["last_snapshot"] = None
        # The version is stored here only, so ``resume`` checks raw bytes
        # and a SimulationSnapshot alike.
        state["_format_version"] = SNAPSHOT_FORMAT_VERSION
        return state

    def snapshot(self) -> SimulationSnapshot:
        """Capture the complete simulation state as one pickle payload.

        Valid at any event boundary: before ``run`` (``started=False`` —
        resuming replays the whole run), at a periodic checkpoint, or
        after the run finished.  The pickle memo preserves every shared
        reference (policy ↔ requests ↔ devices ↔ stream state ↔ RNG), so
        ``resume`` reconstructs a graph that continues bit-identically —
        the exact-resume contract enforced by the chaos harness.
        """
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        return SimulationSnapshot(
            payload=payload,
            events_processed=self._events_processed,
            now=self.now,
            started=self._started,
        )

    @classmethod
    def resume(
        cls,
        snapshot: Union[SimulationSnapshot, bytes],
        *,
        checkpoint_sink: Optional[Callable[[SimulationSnapshot], None]] = None,
        crash_at_event=_KEEP_CRASH,
    ) -> "Simulator":
        """Reconstruct a simulator from a snapshot; call ``run`` to continue.

        The resumed simulator is of the engine class that took the
        snapshot.  The checkpoint sink is not captured in snapshots —
        reattach it here.  By default the snapshot's ``crash_at_event`` is
        kept, so a crash that had not fired at checkpoint time replays
        deterministically; pass ``crash_at_event=None`` to resume crash-free
        (what the chaos harness does so the crash that killed the original
        run does not fire again), or another event count to move the crash.

        Raises :class:`~repro.resilience.SnapshotError` for a payload that
        is empty, truncated or otherwise undecodable, and for a snapshot
        written under another format version — the version is stored only
        in the payload, so raw ``bytes`` are checked alike; ``TypeError``
        for a well-formed pickle of something that is not a simulator.
        """
        payload = (
            snapshot.payload if isinstance(snapshot, SimulationSnapshot) else snapshot
        )
        try:
            sim = pickle.loads(payload)
        except Exception as exc:
            # Corrupt pickle bytes can raise nearly anything (EOFError,
            # UnpicklingError, AttributeError, ValueError, ...).
            raise SnapshotError(
                f"snapshot payload cannot be decoded: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(sim, cls):
            raise TypeError(
                f"snapshot does not contain a {cls.__name__} "
                f"(got {type(sim).__name__})"
            )
        # ``None``: a payload from before the version was embedded.
        version = sim.__dict__.pop("_format_version", None)
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format version {version} cannot be resumed by this "
                f"engine (expects {SNAPSHOT_FORMAT_VERSION})"
            )
        sim._checkpoint_sink = checkpoint_sink
        sim.last_snapshot = None
        if crash_at_event is not _KEEP_CRASH:
            sim.config = replace(sim.config, crash_at_event=crash_at_event)
        return sim

    def _take_checkpoint(self) -> None:
        # Mark progress *before* pickling so the resumed run inherits an
        # up-to-date watermark and does not immediately re-checkpoint.
        self._ckpt_last_events = self._events_processed
        self.checkpoints_taken += 1
        t0 = time.perf_counter()
        snap = self.snapshot()
        self.checkpoint_time_s += time.perf_counter() - t0
        self.last_snapshot = snap
        if self._checkpoint_sink is not None:
            self._checkpoint_sink(snap)

    def _post_event_hook(self) -> None:
        """Checkpoint + crash check at an event boundary.

        The checkpoint is taken *before* the crash check: the crash
        propagates with the checkpoint already captured, exactly the order
        a real deployment needs.
        """
        config = self.config
        interval = config.checkpoint_interval
        if (
            interval is not None
            and self._events_processed - self._ckpt_last_events >= interval
        ):
            self._take_checkpoint()
        crash_at = config.crash_at_event
        if crash_at is not None and self._events_processed >= crash_at:
            raise SimulatedCrash(self._events_processed, self.now)

    def _finalise(self) -> None:
        horizon = self.config.horizon
        for job in self.jobs.values():
            if not job.is_finished:
                job.cancel(min(self.now, horizon))
            self._metrics.jobs[job.job_id] = collect_job_metrics(
                job, category=self._categories.get(job.job_id, "general")
            )
        # Snapshot the policy's plan-maintenance counters (Venn exposes a
        # profile; baselines do not maintain a plan).
        profile = getattr(self.policy, "plan_profile", None)
        if profile is not None:
            self._metrics.plan_maintenance = profile.as_dict()

    # ------------------------------------------------------------------ #
    # Eligibility
    # ------------------------------------------------------------------ #
    def _bind(self, fleet: DeviceFleet, sig_ids, sig_table) -> None:
        """Bind the population once, at build, on both engines."""
        self._binding = (fleet, sig_ids, sig_table)
        self.policy.bind_fleet(fleet, sig_ids, sig_table)

    def _signature(self, device_id: int) -> frozenset:
        """Names of the workload requirements the device satisfies, read
        from the bound table."""
        fleet, sig_ids, sig_table = self._binding
        return sig_table[sig_ids[fleet.row(device_id)]]

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _on_job_arrival(self, event: Event) -> None:
        job = self.jobs[event.job_id]
        self.policy.on_job_arrival(job.spec, self.now)
        self._open_request(job)
        self._dispatch_idle_devices()

    def _on_request_deadline(self, event: Event) -> None:
        request = self._requests.get(event.request_id)
        if request is None or not request.is_open:
            return
        job = self.jobs[request.job_id]
        job.abort_round(self.now)
        self._metrics.total_aborts += 1
        self._pending.remove(request.job_id)
        self.policy.on_request_closed(request, self.now)
        self._deadline_events.pop(request.request_id, None)
        self._refund_aborted(request)
        if request.in_flight == 0:
            # No straggler responses outstanding: nothing will ever look the
            # aborted request up again, so forget it now.
            self._evict_request(request)
        # Retry the round immediately with a fresh request.
        self._open_request(job)
        self._dispatch_idle_devices()

    def _refund_aborted(self, request: ResourceRequest) -> None:
        """Give the aborted round's devices that are not busy back their
        daily budget.

        Participation in an aborted round does not count against the
        one-job-per-day limit: the round's work was discarded and the device
        is still charging/idle, so it may be re-matched.  Devices still
        executing the aborted task are released when their response fires.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Request lifecycle helpers
    # ------------------------------------------------------------------ #
    def _open_request(self, job: JobRuntime) -> ResourceRequest:
        self._request_counter += 1
        request = job.open_round_request(self._request_counter, self.now)
        self._requests[request.request_id] = request
        self._pending.add(job.job_id, job.spec.requirement.name)
        self.policy.on_request_open(request, self.now)
        deadline_event = self.queue.push(
            request.deadline, EventType.REQUEST_DEADLINE, request_id=request.request_id
        )
        self._deadline_events[request.request_id] = deadline_event
        return request

    def _maybe_complete_request(self, request: ResourceRequest) -> None:
        if request.remaining_demand > 0:
            return
        if len(request.responses) < request.min_reports:
            return
        job = self.jobs[request.job_id]
        deadline_event = self._deadline_events.pop(request.request_id, None)
        if deadline_event is not None:
            deadline_event.cancel()
        self._pending.remove(request.job_id)
        finished = job.complete_round(self.now)
        self.policy.on_request_closed(request, self.now)
        if request.in_flight == 0:
            # Demand met means every assigned device responded or straggles;
            # with no straggler in flight the request is unreachable.
            self._evict_request(request)
        if finished:
            self._unfinished_jobs -= 1
            self.policy.on_job_finished(job.job_id, self.now)
        else:
            self._open_request(job)
            self._dispatch_idle_devices()

    def _evict_request(self, request: ResourceRequest) -> None:
        """Forget a closed request whose last in-flight response has fired.

        Closed requests used to accumulate in ``_requests`` for the whole
        run — unbounded growth on multi-round workloads.  Once a request is
        closed *and* its ``in_flight`` counter hits zero, no future event
        can reference it: every response it scheduled has fired, its
        deadline event was popped or cancelled, and policies were already
        told it closed.  Called from the response handlers (straggler
        drained), the completion path and the deadline abort; the
        ``request is None`` branches in the response handlers are thereby
        unreachable for well-formed streams but kept as a safety net.
        """
        self._requests.pop(request.request_id, None)

    # ------------------------------------------------------------------ #
    # Assigning devices
    # ------------------------------------------------------------------ #
    def _consult(self, device_id: int) -> Optional[ResourceRequest]:
        """Offer one device to the policy (both engines' per-device consult).

        Returns the request the device was assigned to, with the assignment
        recorded and the pending pool updated, or ``None`` when the policy
        passed or proposed something that cannot be taken.
        """
        request = self.policy.assign(device_id, self.now)
        if request is None:
            return None
        if not request.is_open or request.remaining_demand <= 0:
            return None
        if request.is_assigned(device_id):
            # A device never participates twice in the same round request.
            return None
        job = self.jobs.get(request.job_id)
        if job is None:
            raise ValueError(
                f"policy assigned device {device_id} to unknown job "
                f"{request.job_id}"
            )
        if job.spec.requirement.name not in self._signature(device_id):
            raise ValueError(
                f"policy assigned ineligible device {device_id} to job "
                f"{request.job_id} ({job.spec.requirement.name})"
            )
        request.record_assignment(device_id, self.now)
        if request.remaining_demand == 0:
            self._pending.remove(request.job_id)
        return request

    def _dispatch_idle_devices(self) -> None:
        """Offer idle online devices to the policy while demand remains.

        Both engines offer, in ascending device-id order and each at most
        once per sweep, every idle device that may take a task and whose
        signature meets a requirement still pending.  Demand only shrinks
        during a sweep (responses and deadlines are future events), so the
        pending names are re-read as requirements fill.
        """
        raise NotImplementedError


def run_simulation(
    devices: Sequence[DeviceProfile],
    availability: DeviceAvailabilityTrace,
    workload: Union[Workload, Sequence[JobSpec]],
    policy: SchedulingPolicy,
    config: Optional[SimulationConfig] = None,
) -> SimulationMetrics:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    sim = Simulator(devices, availability, workload, policy, config)
    return sim.run()


__all__ = [
    "SimulationConfig",
    "SimulationSnapshot",
    "Simulator",
    "run_simulation",
]
