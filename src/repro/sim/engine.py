"""The event-driven collaborative-learning simulator.

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

Check-in fast path (million-device traces)
------------------------------------------

The single-queue engine runs an indexed hot path sized for 10^5–10^6-device
traces:

* same-timestamp device check-ins are popped from the event heap as one
  batch (:meth:`~repro.sim.events.EventQueue.pop_run`), so the per-event
  heap and handler-dispatch overhead is paid once per timestamp; each device
  is still registered and offered to the policy in exactly the original
  order, so decisions are unchanged;
* jobs with open, unsatisfied requests live in a
  :class:`~repro.sim.dispatch.PendingRequestPool` (O(1) membership +
  deadline heap) instead of being re-derived by scanning all jobs;
* idle devices live in a :class:`~repro.sim.dispatch.IdleDevicePool`
  bucketed by eligibility signature, so a request arrival only visits
  devices that could actually serve some pending requirement — and devices
  that spent their one-job-per-day budget are parked on a calendar heap
  until their blackout ends instead of being rescanned on every dispatch.

Devices are offered to the policy in ascending device-id order — the order
of the seed's full linear scans, which this path replaced; the golden
regression tests pin the resulting assignment sequences.

Fleet engine (coordinator + one device stream over arrays)
----------------------------------------------------------

``SimulationConfig(vectorized_dispatch=True)`` runs the other engine: a
coordinator (scheduler state, plan maintenance, request lifecycle, the
global decision order) and one device stream (:mod:`repro.sim.shard`)
holding the fleet's availability events as sorted arrays and its response
heap.  Device state is struct-of-arrays (:mod:`repro.sim.vector`) and a
device is its slot; static runs fold through batched kernels, idle dispatch
is a mask over the arrays and policies offering ``assign_batch_bulk`` are
consulted a cohort at a time.  The stream and the coordinator queue merge
by ``(time, seq)`` with the exact sequence enumeration of the single-queue
engine, so **decisions and metrics are bit-identical to the single-queue
reference** — enforced by twin-run property tests, the golden fixtures and
the decision/metrics hashes of ``tests/sim/test_engine_matrix.py``.  See
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
:class:`~repro.sim.profile.PlanMaintenanceProfile`; the engine snapshots it
into ``SimulationMetrics.plan_maintenance`` at the end of the run so
benchmarks and sweeps can report rebuilds avoided, index patch sizes and
the plan-maintenance time share without reaching into the policy.

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

import heapq
import math
import numbers
import pickle
import time
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from ..core.policy import SchedulingPolicy
from ..core.requirements import signature_of
from ..core.types import DeviceProfile, JobSpec, ResourceRequest
from ..resilience.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SimulatedCrash,
    SimulationSnapshot,
    SnapshotError,
)
from ..traces.device_trace import DeviceAvailabilityTrace
from ..traces.workloads import Workload
from .device import SECONDS_PER_DAY, DeviceRuntime, DeviceStatus, day_index
from .dispatch import IdleDevicePool, PendingRequestPool
from .events import Event, EventQueue, EventType
from .job import JobRuntime
from .latency import LatencyConfig, ResponseLatencyModel
from .metrics import SimulationMetrics, collect_job_metrics
from .shard import INF_KEY, DeviceShard, build_shard, compute_signatures
from .vector import STATUS_BUSY, STATUS_IDLE, STATUS_OFFLINE, VectorDeviceState


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
    #: Safety valve against runaway event loops.
    max_events: int = 10_000_000
    #: Latency model parameters.
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    #: Engine selector.  ``False`` (the default) runs the single-queue
    #: reference engine; ``True`` runs the fleet engine — a coordinator and
    #: one device stream (:mod:`repro.sim.shard`) over struct-of-arrays
    #: device state (:mod:`repro.sim.vector`): batched fold kernels for
    #: static check-in/checkout runs, mask-based idle dispatch, batched
    #: latency draws and — for policies offering ``assign_batch_bulk`` —
    #: bulk consults of large dispatch cohorts.  Decisions and metrics are
    #: **bit-identical** to the reference (enforced by golden fixtures, the
    #: engine-matrix blake2b gates and the scenario fuzzer's twin).
    vectorized_dispatch: bool = False
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


def _check_format_version(version) -> None:
    """Refuse a snapshot written under another ``SNAPSHOT_FORMAT_VERSION``
    (``None``: a payload from before the version was embedded)."""
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version} cannot be resumed by this "
            f"engine (expects {SNAPSHOT_FORMAT_VERSION})"
        )


class _CohortView:
    """Lazy device-profile cohort: what the policy sees of a run of slots.

    ``assign_batch_bulk`` consults a cohort prefix and stops at the first
    demand-zeroing proposal, and ``on_device_checkin_batch`` usually reads
    no profile at all, so eagerly materialising a profile list wastes work
    proportional to the untouched part — at 100k-device scale, most of it.
    This view fetches ``profiles[slots[i]]`` on demand: sequential
    iteration (the bulk walk) and random indexing (commit, recording
    wrappers) both work, and the unvisited tail costs nothing.
    """

    __slots__ = ("_profiles", "_slots")

    def __init__(self, profiles, slots) -> None:
        self._profiles = profiles
        self._slots = slots

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self):
        profiles = self._profiles
        for slot in self._slots:
            yield profiles[slot]

    def __getitem__(self, i):
        return self._profiles[self._slots[i]]


class Simulator:
    """Discrete-event CL simulator binding devices, jobs and a policy."""

    def __init__(
        self,
        devices: Sequence[DeviceProfile],
        availability: DeviceAvailabilityTrace,
        workload: Union[Workload, Sequence[JobSpec]],
        policy: SchedulingPolicy,
        config: Optional[SimulationConfig] = None,
        categories: Optional[Mapping[int, str]] = None,
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
        #: bit-identical to the single-queue engine's one-at-a-time ones.
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
        self._categories: Dict[int, str] = dict(categories or {})
        for job in jobs:
            self._categories.setdefault(job.job_id, job.requirement.name)

        self._device_profiles: List[DeviceProfile] = list(devices)
        known = np.array([d.device_id for d in self._device_profiles], dtype=np.int64)
        if len(np.unique(known)) != len(known):
            raise ValueError("device ids must be unique")
        unknown = ~np.isin(availability.device_ids, known)
        if unknown.any():
            missing = np.unique(availability.device_ids[unknown])
            raise ValueError(
                f"availability trace references unknown devices: {missing[:5].tolist()}"
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
        self._idle_pool = IdleDevicePool()
        #: Fleet engine: coordinator loop over one device stream and
        #: struct-of-arrays device state.  Both are built lazily in ``run``
        #: so their construction is part of the measured run, like the
        #: single-queue engine's initial event scheduling.  A device is its
        #: slot there: :attr:`devices` stays unbuilt until read.
        self._fleet = bool(self.config.vectorized_dispatch)
        self._shard: Optional[DeviceShard] = None
        self._vec: Optional[VectorDeviceState] = None
        self._devices: Optional[Dict[int, DeviceRuntime]] = None
        if not self._fleet:
            self._build_devices()  # the single-queue engine mutates them per event
        #: Deferred assignments awaiting their batched latency draw:
        #: ``(slot, profile, job, request, seq, session_end)``.
        self._assign_buf: list = []
        #: Bulk decision path (fleet engine only): policies exposing
        #: ``assign_batch_bulk`` (Venn) resolve a whole dispatch cohort in
        #: one call and the engine commits the proposals in bulk.  ``None``
        #: — a policy without the hook — keeps every sweep on per-device
        #: consults.
        self._policy_bulk_assign = getattr(policy, "assign_batch_bulk", None)
        # The engine's own signature space: the workload's full requirement
        # set is known up front, so each device's eligibility signature is
        # computed once and kept: lazily, at first check-in, in a dict on the
        # single-queue engine; all at once, as ids into an interned table,
        # on the fleet engine (``VectorDeviceState.sig_id``).  Deduplicated
        # by requirement *object* (not name): if two jobs' requirements
        # shared a name but differed in predicate, both predicates must
        # contribute to the signature so the dispatch bucket filter never
        # under-visits.
        self._requirements = list(dict.fromkeys(job.requirement for job in jobs))
        self._device_signatures: Dict[int, frozenset] = {}
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
        #: Whether ``run`` already performed its one-time setup (initial
        #: event scheduling / stream build).  Snapshotted, so a resumed
        #: run continues mid-stream instead of re-seeding the queues.
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
    # Setup
    # ------------------------------------------------------------------ #
    def _schedule_initial_events(self) -> None:
        for job in self.jobs.values():
            if job.spec.arrival_time <= self.config.horizon:
                self.queue.push(
                    job.spec.arrival_time, EventType.JOB_ARRIVAL, job_id=job.job_id
                )
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

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationMetrics:
        """Run the simulation to the horizon and return aggregate metrics."""
        if self._finished:
            return self._metrics
        if self._fleet:
            return self._run_fleet()
        if not self._started:
            self._started = True
            self._schedule_initial_events()
        handlers = {
            EventType.JOB_ARRIVAL: self._on_job_arrival,
            EventType.DEVICE_CHECKIN: self._on_device_checkin,
            EventType.DEVICE_CHECKOUT: self._on_device_checkout,
            EventType.REQUEST_DEADLINE: self._on_request_deadline,
        }
        # One pristine-path branch per event: with no checkpointing and no
        # crash point the loop body is byte-for-byte the historical one.
        hook = (
            self.config.checkpoint_interval is not None
            or self.config.crash_at_event is not None
        )
        while self.queue:
            event = self.queue.pop()
            if event is None:
                break
            if event.time > self.config.horizon:
                break
            self.now = event.time
            if event.type is EventType.DEVICE_CHECKIN:
                # Batch the contiguous run of same-timestamp check-ins: one
                # heap drain, one handler loop.  Each device is still
                # registered and offered in the original order.
                self._on_device_checkin(event)
                self._events_processed += 1
                for peer in self.queue.pop_run(event.time, EventType.DEVICE_CHECKIN):
                    self._on_device_checkin(peer)
                    self._events_processed += 1
            elif event.type is EventType.DEVICE_RESPONSE:
                self._on_device_response(
                    self._devices[event.device_id], event.request_id, event.success
                )
                self._events_processed += 1
            else:
                handlers[event.type](event)
                self._events_processed += 1
            if self._events_processed >= self.config.max_events:
                raise RuntimeError(
                    "simulation exceeded max_events; check for livelock or "
                    "raise SimulationConfig.max_events"
                )
            if hook:
                self._post_event_hook()
            if self._unfinished_jobs == 0:
                break
        self._finalise()
        self._finished = True
        return self._metrics

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
        if self._fleet:
            state["_devices"] = None  # a view of the arrays, rebuilt on read
        # The version travels inside the payload, so raw bytes are checked
        # by ``resume`` as strictly as a SimulationSnapshot wrapper.
        state["_format_version"] = SNAPSHOT_FORMAT_VERSION
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

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

        The checkpoint sink is not captured in snapshots — reattach it
        here.  By default the snapshot's ``crash_at_event`` is kept, so a
        crash that had not fired at checkpoint time replays
        deterministically; pass ``crash_at_event=None`` to resume crash-free
        (what the chaos harness does so the crash that killed the original
        run does not fire again), or another event count to move the crash.

        Raises :class:`~repro.resilience.SnapshotError` for a payload that
        is empty, truncated or otherwise undecodable, and for a snapshot
        written under another format version — the version is embedded in
        the payload, so raw ``bytes`` are checked too; ``TypeError`` for a
        well-formed pickle of something that is not a simulator.
        """
        if isinstance(snapshot, SimulationSnapshot):
            _check_format_version(snapshot.format_version)
            payload = snapshot.payload
        else:
            payload = snapshot
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
        _check_format_version(sim.__dict__.pop("_format_version", None))
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

    # ------------------------------------------------------------------ #
    # Fleet engine: coordinator loop over one device stream
    # ------------------------------------------------------------------ #
    def _setup_fleet(self) -> None:
        """Build the device stream and seed the coordinator queue.

        Job arrivals claim sequence numbers ``0..J-1`` exactly like the
        single-queue engine's initial pushes; the stream then claims two
        numbers per availability session (assigned in session-sort order at
        build time), and the coordinator counter is advanced past them so
        every later dynamic event — response, deadline — sorts identically
        to its single-queue twin.
        """
        arrivals = 0
        for job in self.jobs.values():
            if job.spec.arrival_time <= self.config.horizon:
                self.queue.push(
                    job.spec.arrival_time, EventType.JOB_ARRIVAL, job_id=job.job_id
                )
                arrivals += 1
        self._shard, consumed = build_shard(
            np.array([d.device_id for d in self._device_profiles], dtype=np.int64),
            self.availability,
            self.config.horizon,
            seq_start=arrivals,
        )
        self.queue.reserve(consumed)
        # Signature precompute: one vectorised pass instead of a per-device
        # predicate walk at first check-in, shared with the policy through
        # the signature-provider protocol.
        self._vec = VectorDeviceState(
            self._device_profiles,
            *compute_signatures(self._device_profiles, self._requirements),
        )
        self.policy.bind_signature_provider(
            self._vec.signature_provider(), tuple(self._requirements)
        )

    def _run_fleet(self) -> SimulationMetrics:
        """Main loop of the coordinator: the device stream against its queue.

        Events are processed in ascending ``(time, seq)`` order across the
        two sources — the exact order the single-queue engine processes
        them.  Runs of consecutive static device events are drained as a
        batch up to the next coordinator event; response events and
        coordinator events go through the per-event path because they can
        schedule work on either source.
        """
        if not self._started:
            self._started = True
            self._setup_fleet()
        horizon = self.config.horizon
        queue = self.queue
        shard = self._shard
        # One pristine-path branch per iteration: with no checkpointing and
        # no crash point the loop is byte-for-byte the historical one.
        hook = (
            self.config.checkpoint_interval is not None
            or self.config.crash_at_event is not None
        )
        while True:
            head = shard.head_key()
            q_key = queue.peek_key() or INF_KEY
            if head < q_key:
                if head[0] > horizon:
                    break
                if not (shard.heap and shard.heap[0][:2] == head):
                    # Static run: drain the check-in/checkout batch up to
                    # the next coordinator event.
                    self._drain_shard_vec(shard, q_key, horizon)
                    if hook:
                        self._post_event_hook()
                    continue
                # Dynamic stream event: a device response.
                t, _seq, slot, request_id, _job_id, success = heapq.heappop(
                    shard.heap
                )
                self.now = t
                self._handle_shard_response_vec(slot, request_id, success)
            else:
                if q_key[0] > horizon:
                    break
                # Coordinator event: job arrival or request deadline.
                event = queue.pop()
                self.now = event.time
                if event.type is EventType.JOB_ARRIVAL:
                    self._on_job_arrival(event)
                else:
                    self._on_request_deadline(event)
            self._events_processed += 1
            if self._events_processed >= self.config.max_events:
                raise RuntimeError(
                    "simulation exceeded max_events; check for livelock "
                    "or raise SimulationConfig.max_events"
                )
            if hook:
                self._post_event_hook()
            if self._unfinished_jobs == 0:
                break
        self._finalise()
        self._finished = True
        return self._metrics

    # ------------------------------------------------------------------ #
    # Fleet-engine hot path: fold kernels, drains, bulk dispatch
    # ------------------------------------------------------------------ #
    #: Below this run length the per-event loop beats the numpy kernel:
    #: a fold_slice call costs ~100 us of array-op overhead regardless of
    #: size, while a Python-loop event costs well under 1 us.  The two
    #: paths replay identical transition functions, so the cutoff affects
    #: only wall time, never results (both identity gates run either way).
    _FOLD_KERNEL_MIN = 32

    def _fold_into(self, shard: DeviceShard, lo: int, hi: int) -> int:
        """Fold static events ``[lo, hi)`` of the stream into the arrays.

        Large runs go through one batched kernel; short runs (the gaps
        between assignment candidates are typically a handful of events)
        replay the same transitions in a plain loop.  The non-busy
        check-ins reach the policy in event order either way — through the
        batch hook or the scalar hook, which are pinned state-identical —
        and the check-in counter advances exactly as the scalar path's
        would.
        """
        if hi - lo < self._FOLD_KERNEL_MIN:
            return self._fold_small(shard, lo, hi)
        ci_slots, ci_times = self._vec.fold_slice(
            shard.sa_time[lo:hi],
            shard.sa_slot[lo:hi],
            shard.sa_code[lo:hi],
            shard.se_end,
        )
        n_ci = int(ci_slots.size)
        if n_ci:
            self._metrics.total_checkins += n_ci
            self.policy.on_device_checkin_batch(
                _CohortView(self._vec.profiles, ci_slots),
                ci_times,
                self._vec.sig_id[ci_slots],
                self._vec.sig_table,
            )
        self.now = float(shard.sa_time[hi - 1])
        return hi - lo

    def _fold_small(self, shard: DeviceShard, lo: int, hi: int) -> int:
        """Per-event twin of the fold kernel for short runs.

        Replays exactly the transitions :meth:`VectorDeviceState.fold_slice`
        batches — busy check-ins max-extend the session, non-busy check-ins
        re-open it, checkouts end an idle session they cover — against the
        same arrays, reading the stream through its decoded window
        (cheaper than numpy scalar indexing at this size).
        """
        vec = self._vec
        status = vec.status
        sess = vec.sess
        profiles = vec.profiles
        metrics = self._metrics
        policy_checkin = self.policy.on_device_checkin
        rows, off, w_hi = shard.w_rows, shard.w_lo, shard.w_hi
        for p in range(lo, hi):
            if not off <= p < w_hi:
                rows, off, w_hi = shard.refill(p)
            t, _seq, slot, send, is_checkin = rows[p - off]
            if is_checkin:
                if status[slot] == STATUS_BUSY:
                    if send > sess[slot]:
                        sess[slot] = send
                else:
                    status[slot] = STATUS_IDLE
                    sess[slot] = send
                    metrics.total_checkins += 1
                    policy_checkin(profiles[slot], t)
            elif status[slot] == STATUS_IDLE and sess[slot] <= send:
                status[slot] = STATUS_OFFLINE
        self.now = t
        return hi - lo

    #: Slices at or below this length are drained by the per-event loop
    #: (:meth:`_drain_small`); response-dominated workloads call the drain
    #: with a couple of static events at a time, where even tiny numpy
    #: slice/mask ops cost more than a plain loop.
    _DRAIN_SCALAR_MAX = 64

    def _drain_small(self, shard: DeviceShard, lo: int, hi: int) -> tuple:
        """Per-event twin of the drain body for short slices.

        Replays the single-queue engine's handlers against the array state:
        each check-in transitions (busy max-extend or re-open + policy hook +
        dispatch attempt), each checkout closes a covered idle session.
        After an assignment flush, subsequent events are re-checked
        against the response head, so a freshly scheduled response stops
        the drain exactly where the event order says it must.  Returns
        ``(processed, cursor)``.
        """
        vec = self._vec
        status = vec.status
        sess = vec.sess
        last_day = vec.last_day
        profiles = vec.profiles
        heap = shard.heap
        metrics = self._metrics
        pending = self._pending
        enforce_daily = self.config.enforce_daily_limit
        policy_checkin = self.policy.on_device_checkin
        rows, off, w_hi = shard.w_rows, shard.w_lo, shard.w_hi
        flushed = False
        p = lo
        while p < hi:
            if not off <= p < w_hi:
                rows, off, w_hi = shard.refill(p)
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
                    policy_checkin(profiles[slot], t)
                    if pending and t < send and not (
                        enforce_daily
                        and last_day[slot] == int(t // SECONDS_PER_DAY)
                    ):
                        self._try_assign_vec(slot)
                        if self._assign_buf:
                            self._flush_assignments()
                            flushed = True
            elif status[slot] == STATUS_IDLE and sess[slot] <= send:
                status[slot] = STATUS_OFFLINE
            p += 1
        return p - lo, p

    def _drain_shard_vec(
        self, shard: DeviceShard, limit: tuple, horizon: float
    ) -> None:
        """Process the stream's static events while they stay globally next.

        The batch ends at ``limit`` (the coordinator queue's next event),
        at the horizon, or as soon as one of the stream's own response
        events becomes due (responses go through the per-event path).
        Static device events mutate only the device arrays and the
        check-in counter, plus the coordinator's supply estimator and, when
        demand is pending, one assignment decision for the checking-in
        device itself; none of that can make a coordinator event earlier,
        which is what makes the batch safe.

        The slice bound (``limit``, the horizon, the stream's own response
        head) is resolved once by binary search instead of per event.
        With no pending demand the whole slice folds in one kernel.  With
        demand pending, *candidate* check-ins — events the single-queue
        engine would offer to the policy — are located with one mask (non-busy at
        slice start, day budget available; an over-approximation re-checked
        exactly per candidate) and processed scalar-on-arrays in order,
        while the assignment-free gaps between them fold as kernels.  An
        assignment can schedule a response that precedes the remaining
        static events; the drain then stops early, exactly where a per-event
        heap check (:meth:`_drain_small`) would.
        """
        vec = self._vec
        sa_time = shard.sa_time
        sa_code = shard.sa_code
        sa_slot = shard.sa_slot
        cursor = shard.cursor
        heap = shard.heap
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
            hi = int(sa_time.searchsorted(horizon, "right"))
        else:
            hi = shard.events_through(bt, bs)
        budget = self.config.max_events - self._events_processed
        if hi - cursor > budget:
            hi = cursor + budget
        processed = 0
        pending = self._pending
        enforce_daily = self.config.enforce_daily_limit
        status = vec.status
        sess = vec.sess
        last_day = vec.last_day
        metrics = self._metrics
        policy_checkin = self.policy.on_device_checkin
        profiles = vec.profiles
        if 0 < hi - cursor <= self._DRAIN_SCALAR_MAX:
            # Short slices (the common case in response-dominated
            # stretches) skip the mask machinery: a per-event loop over
            # the stream's decoded window replays the single-queue handlers
            # exactly, with a per-event response-head check.
            processed, cursor = self._drain_small(shard, cursor, hi)
            hi = cursor
        while cursor < hi:
            if not pending:
                processed += self._fold_into(shard, cursor, hi)
                cursor = hi
                break
            base = cursor
            slots_v = sa_slot[base:hi]
            cand = ((sa_code[base:hi] & 1) == 0) & (
                status[slots_v] != STATUS_BUSY
            )
            if enforce_daily:
                cand &= last_day[slots_v] != vec.day_of(sa_time[base:hi])
            cand_pos = np.nonzero(cand)[0]
            if cand_pos.size == 0:
                processed += self._fold_into(shard, base, hi)
                cursor = hi
                break
            for rel in cand_pos.tolist():
                p = base + rel
                if p >= hi:
                    break  # bound clamped below a scheduled response
                if not pending:
                    break  # outer loop folds the assignment-free remainder
                if p > cursor:
                    processed += self._fold_into(shard, cursor, p)
                if not shard.w_lo <= p < shard.w_hi:
                    shard.refill(p)
                t, _seq, slot, send, _ci = shard.w_rows[p - shard.w_lo]
                self.now = t
                if status[slot] == STATUS_BUSY:
                    # Became busy earlier in this drain: the new session
                    # extends the online window (scalar busy-check-in).
                    if send > sess[slot]:
                        sess[slot] = send
                else:
                    status[slot] = STATUS_IDLE
                    sess[slot] = send
                    metrics.total_checkins += 1
                    policy_checkin(profiles[slot], t)
                    if pending and t < send and not (
                        enforce_daily
                        and last_day[slot] == int(t // SECONDS_PER_DAY)
                    ):
                        self._try_assign_vec(slot)
                        if self._assign_buf:
                            self._flush_assignments()
                            # A freshly scheduled response may precede the
                            # remaining static events; clamp the slice
                            # bound so the drain hands control back exactly
                            # where the per-event heap check would have
                            # broken.  Responses usually land far past
                            # the slice (task durations are minutes), so a
                            # one-read time comparison skips the binary
                            # searches almost every time.
                            if heap and heap[0][0] <= sa_time[hi - 1]:
                                bound = shard.events_through(
                                    heap[0][0], heap[0][1] - 1
                                )
                                if bound < hi:
                                    hi = bound
                processed += 1
                cursor = p + 1
            else:
                if cursor < hi:
                    processed += self._fold_into(shard, cursor, hi)
                    cursor = hi
                break
        shard.cursor = cursor
        self._events_processed += processed
        if processed >= budget:
            raise RuntimeError(
                "simulation exceeded max_events; check for livelock or "
                "raise SimulationConfig.max_events"
            )

    def _handle_shard_response_vec(
        self, slot: int, request_id: int, success: bool
    ) -> None:
        """Array-state twin of :meth:`_on_device_response`; heap rows carry slots."""
        vec = self._vec
        request = self._requests.get(request_id)
        now = self.now
        if request is not None:
            request.in_flight -= 1
        if success:
            vec.tasks_completed[slot] += 1
            self._metrics.total_responses += 1
        else:
            vec.tasks_failed[slot] += 1
            self._metrics.total_failures += 1
        # The session end cannot change inside this handler (folds never
        # run here), so one array read serves both the status transition
        # and the re-dispatch guard.  The status itself is re-read below:
        # completing a round can run a dispatch sweep that assigns this
        # very slot.
        sess_open = now < vec.sess[slot]
        vec.status[slot] = STATUS_IDLE if sess_open else STATUS_OFFLINE
        if success and request is not None and request.is_open:
            profile = vec.profiles[slot]
            request.record_response(profile.device_id, now)
            self.policy.on_response(request, profile, now)
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
            self._try_assign_vec(slot)
            self._flush_assignments()

    def _try_assign_vec(self, slot: int) -> None:
        """Array-state twin of :meth:`_try_assign`: the same consult
        (:meth:`_consult`), state transition on the arrays, and the latency
        draw deferred to :meth:`_flush_assignments` (the response's sequence
        number is claimed here, in decision order)."""
        vec = self._vec
        profile = vec.profiles[slot]
        request = self._consult(profile)
        if request is None:
            return
        job = self.jobs[request.job_id]
        vec.status[slot] = STATUS_BUSY
        vec.last_day[slot] = int(self.now // SECONDS_PER_DAY)
        self._assign_buf.append(
            (
                slot,
                profile,
                job,
                request,
                self.queue.next_seq(),
                float(vec.sess[slot]),
            )
        )

    def _flush_assignments(self) -> None:
        """Draw outcomes for the buffered assignments and queue responses.

        Scheduling a response never influences a later decision within the
        same dispatch sweep (it only lands on the response heap), so deferring
        the draws to one batched kernel is decision-identical to the scalar
        engine's draw-per-assignment — sequence numbers were already claimed
        in assignment order.
        """
        buf = self._assign_buf
        if not buf:
            return
        self._assign_buf = []
        now = self.now
        schedule_response = self._shard.schedule_response
        if len(buf) == 1:
            # Size-1 flushes dominate contended workloads; the batch kernel
            # already falls back to a per-element loop there, so skip its
            # list plumbing and draw directly (bit-identical by contract).
            _slot, profile, job, request, seq, send = buf[0]
            outcomes = (
                self.latency.sample_outcome(job.spec, profile, now=now),
            )
        else:
            outcomes = self.latency.sample_outcomes_batch(
                [entry[2].spec for entry in buf],
                [entry[1] for entry in buf],
                now=now,
            )
        for (slot, profile, job, request, seq, send), (
            duration,
            dropped,
        ) in zip(buf, outcomes):
            finishes_in_session = now + duration <= send
            success = (not dropped) and finishes_in_session
            if success:
                finish_time = now + duration
            else:
                finish_time = min(now + duration, max(send, now))
            schedule_response(
                finish_time, seq, slot, request.request_id, job.job_id, success
            )

    def _dispatch_idle_devices_vec(self) -> None:
        """Mask-based twin of the idle-pool dispatch sweep.

        The candidate mask (idle, session open, daily budget available,
        signature intersects a pending requirement) enumerates exactly the
        devices the scalar bucket walk visits, in the same ascending
        device-id order (slots are id-ranked); the pending-name narrowing
        on ``names_version`` changes mirrors the bucket re-filter.

        Large cohorts go through the policy's ``assign_batch_bulk`` when it
        offers one (:meth:`_dispatch_cohort_batched`): one plan refresh and
        one candidate resolution per interned signature instead of per
        device, decisions bit-identical to per-device consults (the
        differential suite and the engine-matrix unbatched twins hold the
        line).  Every other sweep — cohorts up to
        ``_DRAIN_SCALAR_MAX``, where the batch plumbing costs more than it
        saves, and policies without the hook — stays on the scalar consult
        loop.
        """
        pending = self._pending
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
        if (
            self._policy_bulk_assign is not None
            and queue.size > self._DRAIN_SCALAR_MAX
        ):
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
                # remainder in one array op (the scalar path's bucket
                # re-filter) instead of re-checking eligibility per slot.
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
            self._try_assign_vec(slot)
        self._flush_assignments()

    def _dispatch_cohort_batched(self, queue, version: int) -> None:
        """Drive one dispatch sweep through ``policy.assign_batch_bulk``.

        The cohort is the already-filtered idle queue in ascending slot
        (= device-id) order — exactly the scalar sweep's offer order.  It
        is fed to the policy one chunk at a time.  The scalar sweep
        re-checks ``names_version`` before *every* consult; the batch gets
        the same semantics by construction: the name set can only narrow
        as the result of a commit (a job's demand emptying), and the
        policy's walk stops at the first demand-zeroing proposal, so the
        engine commits, re-filters the unvisited remainder in one array op
        and resumes — no device the scalar re-filter would have dropped is
        ever consulted.  Buffered proposals are flushed once by the
        caller: responses only land on the response heap and never
        influence a decision within the sweep.
        """
        pending = self._pending
        vec = self._vec
        profiles = vec.profiles
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
            # The walk stops itself at the first demand-zeroing proposal
            # and the cohort view materialises profiles on demand, so
            # chunks can be generous — the consulted prefix, not the chunk
            # width, bounds the work.
            chunk = queue[i : i + min(n - i, 8192)].tolist()
            cohort = _CohortView(profiles, chunk)
            consumed, proposals = bulk(cohort, now)
            if proposals:
                self._commit_cohort_vec(chunk, cohort, proposals)
            if consumed == 0:
                # No open requests on the policy side (a consumed cohort
                # always advances): nothing left to offer.
                break
            i += consumed

    def _commit_cohort_vec(self, slots, cohort, proposals) -> None:
        """Bulk twin of the commit tail of :meth:`_try_assign_vec`.

        ``proposals`` is the ledger-validated output of
        ``assign_batch_bulk`` — every request is open with enough demand
        for its share of the cohort and no device repeats, so the scalar
        commit's silently-skip guards cannot fire, and candidates from the
        indexed plan are eligible by construction (signature containment),
        so the per-proposal eligibility re-check is redundant.  Response
        sequence numbers are claimed per proposal in offer order; demand
        bookkeeping is applied per request in bulk.  State after this call
        is identical to having interleaved per-device commits with the
        consults.
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
        #: request_id -> (request, job, [device_ids]) accumulated in order.
        grouped: dict = {}
        for i, request in proposals:
            slot = slots[i]
            profile = cohort[i]
            entry = grouped.get(request.request_id)
            if entry is None:
                job = jobs.get(request.job_id)
                if job is None:
                    raise ValueError(
                        f"policy assigned device {profile.device_id} to "
                        f"unknown job {request.job_id}"
                    )
                grouped[request.request_id] = entry = (request, job, [])
            entry[2].append(profile.device_id)
            status[slot] = STATUS_BUSY
            last_day[slot] = day
            buf.append(
                (slot, profile, entry[1], request, next_seq(), float(sess[slot]))
            )
        for request, job, device_ids in grouped.values():
            request.record_assignments_bulk(device_ids, now)
            if request.remaining_demand == 0:
                pending.remove(request.job_id)

    @property
    def devices(self) -> Dict[int, DeviceRuntime]:
        """``DeviceRuntime`` objects by device id.  The vectorized engine
        never reads them: there the dict is built from the arrays on first
        read and refreshed once, when the run finalises (a mid-run read
        shows the state as of the first read; snapshots do not carry it)."""
        if self._devices is None:
            self._build_devices()
        return self._devices

    def _build_devices(self) -> None:
        """Create the runtimes (first call); once a vectorized run has its
        arrays, copy their state onto them (``current_job`` and
        ``current_request`` are not tracked per device there: ``None``)."""
        if self._devices is None:
            self._devices = {
                d.device_id: DeviceRuntime(profile=d) for d in self._device_profiles
            }
        vec = self._vec
        if vec is None:
            return
        status_of = (DeviceStatus.OFFLINE, DeviceStatus.IDLE, DeviceStatus.BUSY)
        devices = self._devices
        for device_id, status, sess, day, completed, failed in zip(
            vec.ids.tolist(),
            vec.status.tolist(),
            vec.sess.tolist(),
            vec.last_day.tolist(),
            vec.tasks_completed,
            vec.tasks_failed,
        ):
            device = devices[device_id]
            device.status = status_of[status]
            device.session_end = sess
            device.last_participation_day = day if day >= 0 else None
            device.tasks_completed = completed
            device.tasks_failed = failed

    def _finalise(self) -> None:
        if self._fleet and self._devices is not None:
            self._build_devices()
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
    # Idle-device bookkeeping
    # ------------------------------------------------------------------ #
    def _signature(self, device: DeviceRuntime) -> frozenset:
        sig = self._device_signatures.get(device.device_id)
        if sig is None:
            sig = signature_of(device.profile, self._requirements)
            self._device_signatures[device.device_id] = sig
        return sig

    def _note_idle(self, device: DeviceRuntime) -> None:
        """Device became idle: track it, parking daily-spent devices."""
        pool = self._idle_pool
        sig = self._signature(device)
        if self.config.enforce_daily_limit and device.participated_today(self.now):
            pool.park(device.device_id, sig, device.last_participation_day + 1)
        else:
            pool.add(device.device_id, sig)

    def _note_not_idle(self, device_id: int) -> None:
        self._idle_pool.discard(device_id)

    def _refund_daily_budget(self, device: DeviceRuntime) -> None:
        """The device's round was discarded; it keeps its daily budget."""
        device.last_participation_day = None
        pool = self._idle_pool
        if device.is_idle:
            pool.unpark(device.device_id)
        else:
            pool.discard(device.device_id)

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _on_job_arrival(self, event: Event) -> None:
        job = self.jobs[event.job_id]
        self.policy.on_job_arrival(job.spec, self.now)
        self._open_request(job)
        self._dispatch_idle_devices()

    def _on_device_checkin(self, event: Event) -> None:
        device = self._devices[event.device_id]
        session_end = event.session_end
        if device.status is DeviceStatus.BUSY:
            # The previous task overran into this session; treat the new
            # session as extending the device's online window.
            device.session_end = max(device.session_end, session_end)
            return
        device.check_in(self.now, session_end)
        self._note_idle(device)
        self._metrics.total_checkins += 1
        self.policy.on_device_checkin(device.profile, self.now)
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
            self._note_not_idle(device.device_id)

    def _on_device_response(
        self, device: DeviceRuntime, request_id: int, success: bool
    ) -> None:
        """A device's task ended (single-queue engine)."""
        request = self._requests.get(request_id)
        if request is not None:
            request.in_flight -= 1
        device.finish_task(self.now, success)
        if device.is_idle:
            self._note_idle(device)
        else:
            self._note_not_idle(device.device_id)
        if success:
            self._metrics.total_responses += 1
        else:
            self._metrics.total_failures += 1

        if success and request is not None and request.is_open:
            request.record_response(device.device_id, self.now)
            self.policy.on_response(request, device.profile, self.now)
            self._maybe_complete_request(request)
        elif request is not None and not request.is_open:
            # The round was aborted (or cancelled) while this device was still
            # computing; its work is discarded, so it keeps its daily budget.
            self._refund_daily_budget(device)
            if request.in_flight == 0:
                self._evict_request(request)

        # A freed device may immediately serve another job (when the daily
        # limit permits and some request has unmet demand — see the
        # matching guard in ``_on_device_checkin``).
        if self._pending and device.can_take_task(
            self.now, self.config.enforce_daily_limit
        ):
            self._try_assign(device)

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
        # Participation in an aborted round does not count against the
        # one-job-per-day limit: the round's work was discarded and the device
        # is still charging/idle, so it may be re-matched.  Devices still
        # executing the aborted task are released when their response fires.
        if self._fleet:
            vec = self._vec
            slots = vec.slots_for(request.assigned)
            vec.last_day[slots[vec.status[slots] != STATUS_BUSY]] = -1
        else:
            for device_id in request.assigned:
                device = self._devices[device_id]
                if device.status is not DeviceStatus.BUSY:
                    self._refund_daily_budget(device)
        if request.in_flight == 0:
            # No straggler responses outstanding: nothing will ever look the
            # aborted request up again, so forget it now.
            self._evict_request(request)
        # Retry the round immediately with a fresh request.
        self._open_request(job)
        self._dispatch_idle_devices()

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
        self.policy.on_request_closed(request, self.now)
        finished = job.complete_round(self.now)
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

        Closed requests used to accumulate in ``_requests`` (and in their
        job's ``request_history``) for the whole run — unbounded growth on
        multi-round workloads.  Once a request is closed *and* its
        ``in_flight`` counter hits zero, no future event can reference it:
        every response it scheduled has fired, its deadline event was popped
        or cancelled, and policies were already told it closed.  Called from
        the response handlers (straggler drained), the completion path and
        the deadline abort; the ``request is None`` branches in the response
        handlers are thereby unreachable for well-formed streams but kept as
        a safety net.
        """
        self._requests.pop(request.request_id, None)
        job = self.jobs.get(request.job_id)
        if job is not None:
            job.release_request(request)

    # ------------------------------------------------------------------ #
    # Assignment helpers
    # ------------------------------------------------------------------ #
    def _consult(self, profile: DeviceProfile) -> Optional[ResourceRequest]:
        """Offer one device to the policy (both engines' per-device consult).

        Returns the request the device was assigned to, with the assignment
        recorded and the pending pool updated, or ``None`` when the policy
        passed or proposed something that cannot be taken.
        """
        request = self.policy.assign(profile, self.now)
        if request is None:
            return None
        if not request.is_open or request.remaining_demand <= 0:
            return None
        if request.is_assigned(profile.device_id):
            # A device never participates twice in the same round request.
            return None
        job = self.jobs.get(request.job_id)
        if job is None:
            raise ValueError(
                f"policy assigned device {profile.device_id} to unknown job "
                f"{request.job_id}"
            )
        if not job.spec.requirement.is_eligible(profile):
            raise ValueError(
                f"policy assigned ineligible device {profile.device_id} to job "
                f"{request.job_id} ({job.spec.requirement.name})"
            )
        request.record_assignment(profile.device_id, self.now)
        if request.remaining_demand == 0:
            self._pending.remove(request.job_id)
        return request

    def _try_assign(self, device: DeviceRuntime) -> None:
        request = self._consult(device.profile)
        if request is None:
            return
        job = self.jobs[request.job_id]
        device.start_task(job.job_id, request.request_id, self.now)
        self._note_not_idle(device.device_id)

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
            job_id=job.job_id,
            success=success,
        )

    def _dispatch_idle_devices(self) -> None:
        """Offer idle online devices to the policy while demand remains.

        Devices are visited in ascending device-id order; the pools skip
        devices that cannot satisfy any pending requirement.
        """
        if not self._pending:
            return
        if self._fleet:
            self._dispatch_idle_devices_vec()
            return
        cfg_daily = self.config.enforce_daily_limit
        devices = self._devices

        def visit(device_id: int) -> None:
            device = devices[device_id]
            if device.can_take_task(self.now, cfg_daily):
                self._try_assign(device)

        self._idle_pool.dispatch(self._pending, self.now, visit)


def run_simulation(
    devices: Sequence[DeviceProfile],
    availability: DeviceAvailabilityTrace,
    workload: Union[Workload, Sequence[JobSpec]],
    policy: SchedulingPolicy,
    config: Optional[SimulationConfig] = None,
    categories: Optional[Mapping[int, str]] = None,
) -> SimulationMetrics:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    sim = Simulator(devices, availability, workload, policy, config, categories)
    return sim.run()


__all__ = [
    "SimulationConfig",
    "SimulationSnapshot",
    "Simulator",
    "run_simulation",
]
