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

:class:`BasePolicy` implements the bookkeeping every concrete policy needs —
job/requirement registries, the set of open requests and eligibility
filtering — so that concrete policies only implement the ordering /
matching decision itself.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .requirements import EligibilityRequirement
from .types import DeviceProfile, JobSpec, ResourceRequest


class SchedulingPolicy(abc.ABC):
    """Abstract device-to-job scheduling policy."""

    #: Human-readable policy name used in reports and benchmark tables.
    name: str = "abstract"

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
    def assign(
        self, device: DeviceProfile, now: float
    ) -> Optional[ResourceRequest]:
        """Pick the open request this checked-in device should serve.

        Returns ``None`` when no eligible request wants the device (the
        device then stays idle in the pool).
        """

    def on_response(
        self, request: ResourceRequest, device: DeviceProfile, now: float
    ) -> None:
        """A device assigned to ``request`` reported back at ``now``.

        Optional hook; the default implementation ignores it.
        """

    def on_device_checkin(self, device: DeviceProfile, now: float) -> None:
        """A device became available (called before :meth:`assign`).

        Optional hook used by policies that track supply (Venn).
        """

    def on_device_checkin_batch(
        self,
        devices: Sequence[DeviceProfile],
        times: "np.ndarray",
        sig_ids: "np.ndarray",
        sig_table,
    ) -> None:
        """A time-ordered batch of devices became available (vectorized path).

        Called by the vectorized engine instead of per-event
        :meth:`on_device_checkin` when a run of check-ins is folded in one
        kernel.  ``devices`` is a lazy view (``len``, iteration, indexing)
        that builds nothing for policies that never look at it, and
        ``sig_ids[i]`` indexes ``sig_table`` (the engine's interned
        signature list).  Implementations must leave the policy in
        *exactly* the state the per-event hook would have — the scalar path
        is the decision-hash oracle.  The default delegates to the scalar
        hook per event, and skips the loop entirely for policies that never
        overrode it.
        """
        if type(self).on_device_checkin is SchedulingPolicy.on_device_checkin:
            return
        for device, now in zip(devices, times.tolist()):
            self.on_device_checkin(device, now)

    def bind_rng(self, rng: "np.random.Generator") -> None:
        """Adopt the simulation's random generator (seed plumbing).

        The engine calls this once, before any event is processed, so that a
        single injected :class:`numpy.random.Generator` drives every random
        draw in a run.  Policies that were constructed with an explicit seed
        keep their own generator; policies without one adopt ``rng``.  The
        default implementation ignores it (deterministic policies).
        """

    def bind_signature_provider(
        self, provider, requirements: Iterable["EligibilityRequirement"]
    ) -> None:
        """Offer precomputed device eligibility signatures (optional).

        The fleet engine precomputes every device's signature with respect
        to the workload's full requirement set (one vectorised pass at
        stream build time) and offers them here: ``provider(device_id)`` returns
        the frozenset of requirement names of ``requirements`` the device
        satisfies.  Policies that compute signatures themselves (Venn) can
        derive their own — a restriction to the currently-live requirement
        set — from the provided ones instead of re-evaluating predicates
        per device; policies that never look at signatures ignore the call
        (the default).

        Implementations must treat the provider as an *optimisation only*:
        decisions must be bit-identical with and without it.
        """


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
    def eligible_open_requests(
        self, device: DeviceProfile
    ) -> List[ResourceRequest]:
        """Open, unsatisfied requests whose job may use ``device``.

        Eligibility is evaluated once per *requirement* rather than once per
        job: jobs sharing a requirement are resource-homogeneous, so the
        per-check-in cost is O(#jobs + #distinct requirements) dictionary
        work instead of O(#jobs) predicate evaluations.
        """
        out: List[ResourceRequest] = []
        # Keyed by the (frozen, hashable) requirement object itself, so two
        # jobs whose requirements merely share a name never alias.
        eligible_memo: Dict[EligibilityRequirement, bool] = {}
        for job_id, request in self.open_requests.items():
            if request.remaining_demand <= 0:
                continue
            if request.is_assigned(device.device_id):
                # One device participates at most once per round request.
                continue
            job = self.jobs.get(job_id)
            if job is None:
                continue
            requirement = job.requirement
            ok = eligible_memo.get(requirement)
            if ok is None:
                ok = eligible_memo[requirement] = requirement.is_eligible(device)
            if ok:
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
