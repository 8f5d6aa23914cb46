"""Scheduling-policy interface shared by Venn and every baseline.

A policy is the component the simulator (or a real deployment) consults at
each device check-in: "this device just became available — which job's open
request should it serve?".  The interface mirrors the event structure of the
paper's Figure 6:

* jobs arrive and finish (``on_job_arrival`` / ``on_job_finished``),
* each round a job submits and later closes a resource request
  (``on_request_open`` / ``on_request_closed``),
* devices check in one at a time and the policy returns an assignment
  (``assign``),
* device responses are reported back (``on_response``) so that policies that
  profile device behaviour (Venn's tier-based matching) can learn from them.

Hooks name a device by its id (a Python ``int``).  What a policy may know
about a device comes from one binding, made once before any event
(:meth:`SchedulingPolicy.bind_fleet`): the population as columns
(:class:`~repro.core.types.DeviceFleet`, whose ``row`` turns an id into a
row) and each row's eligibility signature over the workload's requirement
names, as ids into an interned table
(:func:`~repro.core.requirements.compute_signatures`).  An engine binds its
own population; a policy driven without one binds the same way.

:class:`BasePolicy` implements the bookkeeping every concrete policy needs —
job/requirement registries, the set of open requests and eligibility
filtering — so that concrete policies only implement the ordering /
matching decision itself.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .requirements import AtomSignature, EligibilityRequirement
from .types import DeviceFleet, JobSpec, ResourceRequest


class SchedulingPolicy(abc.ABC):
    """Abstract device-to-job scheduling policy."""

    #: Human-readable policy name used in reports and benchmark tables.
    name: str = "abstract"

    #: The bound population (:meth:`bind_fleet`); ``None`` until bound.
    fleet: Optional[DeviceFleet] = None
    #: ``sig_table[sig_ids[row]]``: the names of the workload requirements
    #: the device at ``row`` of :attr:`fleet` satisfies.
    sig_ids: Optional[np.ndarray] = None
    sig_table: Optional[Sequence[AtomSignature]] = None

    @abc.abstractmethod
    def on_job_arrival(self, job: JobSpec, now: float) -> None:
        """A new CL job registered with the resource manager."""

    @abc.abstractmethod
    def on_job_finished(self, job_id: int, now: float) -> None:
        """A CL job completed its final round (or was cancelled)."""

    @abc.abstractmethod
    def on_request_open(self, request: ResourceRequest, now: float) -> None:
        """A job opened a new per-round resource request."""

    @abc.abstractmethod
    def on_request_closed(self, request: ResourceRequest, now: float) -> None:
        """A request reached a terminal state (completed or aborted)."""

    @abc.abstractmethod
    def assign(self, device_id: int, now: float) -> Optional[ResourceRequest]:
        """Pick the open request the checked-in device should serve.

        Returns ``None`` when no eligible request wants the device (the
        device then stays idle in the pool).
        """

    def on_response(
        self, request: ResourceRequest, device_id: int, now: float
    ) -> None:
        """A device assigned to ``request`` reported back at ``now``.

        Optional hook; the default implementation ignores it.
        """

    def on_device_checkin(self, device_id: int, now: float) -> None:
        """A device became available (called before :meth:`assign`).

        Optional hook used by policies that track supply (Venn).
        """

    def on_device_checkin_batch(
        self, device_ids: "np.ndarray", times: "np.ndarray"
    ) -> None:
        """A time-ordered batch of devices became available (fleet engine).

        Called instead of per-event :meth:`on_device_checkin` when a run of
        check-ins is folded in one kernel: ``device_ids[i]`` checked in at
        ``times[i]``.  Implementations must leave the policy in *exactly*
        the state the per-event hook would have — the scalar path is the
        decision-hash oracle.  The default delegates to the scalar hook per
        event, and skips the loop entirely for policies that never
        overrode it.
        """
        if type(self).on_device_checkin is SchedulingPolicy.on_device_checkin:
            return
        for device_id, now in zip(device_ids.tolist(), times.tolist()):
            self.on_device_checkin(device_id, now)

    def bind_rng(self, rng: "np.random.Generator") -> None:
        """Adopt the simulation's random generator (seed plumbing).

        The engine calls this once, before any event is processed, so that a
        single injected :class:`numpy.random.Generator` drives every random
        draw in a run.  Policies that were constructed with an explicit seed
        keep their own generator; policies without one adopt ``rng``.  The
        default implementation ignores it (deterministic policies).
        """

    def bind_fleet(
        self,
        fleet: DeviceFleet,
        sig_ids: np.ndarray,
        sig_table: Sequence[AtomSignature],
    ) -> None:
        """Adopt the population the hooks' device ids name.

        The engine calls this once, before any event is processed, with its
        fleet and the ``(sig_ids, sig_table)`` pair
        :func:`~repro.core.requirements.compute_signatures` returns for the
        workload's requirements (whose names are unique): the device with
        id ``d`` sits at row ``fleet.row(d)`` and satisfies the
        requirements named in ``sig_table[sig_ids[row]]``.  Policies that
        override this must call it.
        """
        self.fleet = fleet
        self.sig_ids = sig_ids
        self.sig_table = sig_table

    def device_signature(self, device_id: int) -> AtomSignature:
        """Names of the workload requirements the device satisfies."""
        return self.sig_table[self.sig_ids[self.fleet.row(device_id)]]


class SeededRngMixin:
    """Seed-ownership protocol shared by every policy that draws randomness.

    A policy constructed with an explicit seed keeps its own generator; one
    constructed without adopts the simulation engine's single run generator
    when the engine calls :meth:`bind_rng`.
    """

    def _init_rng(self, seed: Optional[int]) -> None:
        self._rng = np.random.default_rng(seed)
        self._rng_owned = seed is not None

    def bind_rng(self, rng: np.random.Generator) -> None:
        if not self._rng_owned:
            self._rng = rng


class BasePolicy(SchedulingPolicy):
    """Common bookkeeping shared by all concrete policies.

    Tracks registered jobs, their requirements and currently-open requests,
    and provides eligibility filtering.  Subclasses decide the *order* in
    which eligible requests are considered.
    """

    name = "base"

    def __init__(self) -> None:
        self.jobs: Dict[int, JobSpec] = {}
        self.open_requests: Dict[int, ResourceRequest] = {}
        #: Arrival time per job id (used by age-sensitive policies).
        self.job_arrival: Dict[int, float] = {}
        #: Rounds completed per job id (used by SRSF-style policies).
        self.rounds_completed: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle hooks
    # ------------------------------------------------------------------ #
    def on_job_arrival(self, job: JobSpec, now: float) -> None:
        if job.job_id in self.jobs:
            raise ValueError(f"job {job.job_id} already registered")
        self.jobs[job.job_id] = job
        self.job_arrival[job.job_id] = now
        self.rounds_completed[job.job_id] = 0

    def on_job_finished(self, job_id: int, now: float) -> None:
        self.jobs.pop(job_id, None)
        self.open_requests.pop(job_id, None)
        self.job_arrival.pop(job_id, None)
        self.rounds_completed.pop(job_id, None)

    def on_request_open(self, request: ResourceRequest, now: float) -> None:
        if request.job_id not in self.jobs:
            raise KeyError(f"request references unknown job {request.job_id}")
        self.open_requests[request.job_id] = request

    def on_request_closed(self, request: ResourceRequest, now: float) -> None:
        current = self.open_requests.get(request.job_id)
        if current is not None and current.request_id == request.request_id:
            del self.open_requests[request.job_id]
        if request.state.value == "completed":
            self.rounds_completed[request.job_id] = (
                self.rounds_completed.get(request.job_id, 0) + 1
            )

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def eligible_open_requests(self, device_id: int) -> List[ResourceRequest]:
        """Open, unsatisfied requests whose job may use the device.

        A job may use it when its requirement's name is in the device's
        bound signature: one set probe per job, no predicate evaluated.
        """
        signature = self.device_signature(device_id)
        out: List[ResourceRequest] = []
        for job_id, request in self.open_requests.items():
            if request.remaining_demand <= 0:
                continue
            if request.is_assigned(device_id):
                # One device participates at most once per round request.
                continue
            job = self.jobs.get(job_id)
            if job is not None and job.requirement.name in signature:
                out.append(request)
        return out

    def remaining_job_demand(self, job_id: int) -> int:
        """Rough remaining demand of a job: current request + future rounds.

        Used by demand-sensitive orderings (SRSF and Venn's intra-group
        order).  The estimate is ``remaining devices this round + devices per
        round × remaining rounds``.
        """
        job = self.jobs[job_id]
        done = self.rounds_completed.get(job_id, 0)
        request = self.open_requests.get(job_id)
        this_round = request.remaining_demand if request is not None else 0
        rounds_in_flight = 1 if request is not None else 0
        future_rounds = max(0, job.num_rounds - done - rounds_in_flight)
        return this_round + future_rounds * job.demand_per_round

    def iter_requirements(self) -> Iterable[EligibilityRequirement]:
        """Distinct requirements across currently-registered jobs."""
        seen = {}
        for job in self.jobs.values():
            seen[job.requirement.name] = job.requirement
        return seen.values()


__all__ = ["BasePolicy", "SchedulingPolicy", "SeededRngMixin"]
