"""Core data types shared across the Venn reproduction.

The vocabulary follows the paper (Liu et al., MLSys 2025):

* A :class:`DeviceProfile` is an edge device with normalised hardware scores,
  a relative execution-speed factor, optional data-domain tags and a
  reliability (probability of successfully completing an assigned task).
* An :class:`EligibilityRequirement` (see :mod:`repro.core.requirements`)
  describes which devices a job may use.
* A :class:`JobSpec` is a CL job: an eligibility requirement, a per-round
  participant demand, a number of rounds and per-round deadline parameters.
* A :class:`ResourceRequest` is one round's resource demand submitted to the
  resource manager (step 0 in Figure 6 of the paper).

All objects are plain dataclasses so they can be constructed directly by
users of the library, serialised easily, and used as stable keys where
hashable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional


class RequestState(enum.Enum):
    """Lifecycle of a single round's resource request."""

    #: Submitted to the resource manager, still acquiring devices.
    PENDING = "pending"
    #: All ``demand`` devices have been assigned; waiting for responses.
    COLLECTING = "collecting"
    #: Enough responses arrived before the deadline; the round succeeded.
    COMPLETED = "completed"
    #: The deadline passed before enough responses arrived.
    ABORTED = "aborted"
    #: The owning job was cancelled / removed.
    CANCELLED = "cancelled"


class JobState(enum.Enum):
    """Lifecycle of a CL job inside the simulator / resource manager."""

    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    CANCELLED = "cancelled"


@dataclass(frozen=True, slots=True)
class DeviceProfile:
    """A single edge device.

    Parameters
    ----------
    device_id:
        Unique integer identifier.
    cpu_score:
        Normalised CPU capability in ``[0, 1]`` (Figure 2b / 8a of the paper).
    memory_score:
        Normalised memory capability in ``[0, 1]``.
    speed_factor:
        Multiplier applied to the base on-device computation time of a task.
        ``1.0`` is the population median; smaller is faster.  Derived from the
        hardware scores by the capacity sampler.
    data_domains:
        Data domains present on the device (e.g. ``{"keyboard", "emoji"}``).
        A job whose requirement names a domain can only use devices that hold
        that domain.
    reliability:
        Probability that the device completes an assigned task instead of
        dropping out mid-round (battery, connectivity, ...).
    """

    device_id: int
    cpu_score: float
    memory_score: float
    speed_factor: float = 1.0
    data_domains: frozenset = frozenset()
    reliability: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.cpu_score <= 1.0):
            raise ValueError(f"cpu_score must be in [0, 1], got {self.cpu_score}")
        if not (0.0 <= self.memory_score <= 1.0):
            raise ValueError(
                f"memory_score must be in [0, 1], got {self.memory_score}"
            )
        if self.speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {self.speed_factor}")
        if not (0.0 <= self.reliability <= 1.0):
            raise ValueError(f"reliability must be in [0, 1], got {self.reliability}")


@dataclass
class JobSpec:
    """Static description of a CL job submitted to the resource manager.

    Parameters
    ----------
    job_id:
        Unique integer identifier.
    requirement:
        The :class:`~repro.core.requirements.EligibilityRequirement` the job's
        devices must satisfy.
    demand_per_round:
        Number of participant devices requested per round (``D_i``).
    num_rounds:
        Number of training rounds the job runs before completing.
    arrival_time:
        Simulated time (seconds) at which the job arrives.
    round_deadline:
        Per-round deadline in seconds.  The paper uses 5-15 minutes depending
        on the round demand.
    min_report_fraction:
        Fraction of ``demand_per_round`` that must report back before the
        deadline for the round to count as successful (0.8 in the paper).
    base_task_duration:
        Median on-device computation time (seconds) of one round's task for a
        device with ``speed_factor == 1``.
    name:
        Optional human-readable name (e.g. ``"emoji-prediction"``).
    """

    job_id: int
    requirement: "object"
    demand_per_round: int
    num_rounds: int
    arrival_time: float = 0.0
    round_deadline: float = 600.0
    min_report_fraction: float = 0.8
    base_task_duration: float = 60.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.demand_per_round <= 0:
            raise ValueError("demand_per_round must be positive")
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if not (0.0 < self.min_report_fraction <= 1.0):
            raise ValueError("min_report_fraction must be in (0, 1]")
        if self.round_deadline <= 0:
            raise ValueError("round_deadline must be positive")
        if self.base_task_duration <= 0:
            raise ValueError("base_task_duration must be positive")
        if not self.name:
            self.name = f"job-{self.job_id}"

    @property
    def total_demand(self) -> int:
        """Total device-participations the job needs across all rounds."""
        return self.demand_per_round * self.num_rounds

    @property
    def min_reports(self) -> int:
        """Number of responses a round needs to be declared successful."""
        return max(1, math.ceil(self.min_report_fraction * self.demand_per_round))


@dataclass(slots=True)
class ResourceRequest:
    """One round's resource request (paper Figure 6, step 0).

    A request is opened when a job starts a round and closed either when it
    completes (enough responses) or aborts (deadline).  The resource manager
    only ever sees open requests.
    """

    request_id: int
    job_id: int
    demand: int
    submit_time: float
    deadline: float
    min_reports: int
    round_index: int = 0
    state: RequestState = RequestState.PENDING
    #: Device ids assigned so far (in assignment order).
    assigned: list = field(default_factory=list)
    #: ``device_id -> assignment time`` for O(1) membership tests and time
    #: lookups on the check-in/response hot paths (kept in sync by
    #: :meth:`record_assignment`).
    assigned_ids: dict = field(default_factory=dict)
    #: Assignment times corresponding to ``assigned``.
    assigned_times: list = field(default_factory=list)
    #: Device ids that reported back, with report times.
    responses: dict = field(default_factory=dict)
    #: Time at which the demand was fully acquired (end of scheduling delay).
    acquired_time: Optional[float] = None
    #: Time at which the request reached a terminal state.
    close_time: Optional[float] = None
    #: Scheduled device responses that have not fired yet.  Incremented by
    #: :meth:`record_assignment` (every assignment schedules exactly one
    #: response event, success or failure) and decremented by the engine's
    #: response handlers; a closed request with ``in_flight == 0`` can never
    #: be looked up again, so the engine evicts it from its request table —
    #: the fix for the unbounded ``Simulator._requests`` growth on
    #: multi-day runs.
    in_flight: int = 0
    #: Devices still needed to fully satisfy this request.  Maintained by
    #: :meth:`record_assignment` (always ``max(0, demand - len(assigned))``)
    #: instead of being recomputed per read: this is one of the hottest
    #: fields in the simulator (every candidate walked at every check-in
    #: reads it).
    remaining_demand: int = field(init=False)

    def __post_init__(self) -> None:
        self.remaining_demand = max(0, self.demand - len(self.assigned))

    @property
    def is_open(self) -> bool:
        state = self.state
        return state is RequestState.PENDING or state is RequestState.COLLECTING

    def is_assigned(self, device_id: int) -> bool:
        """O(1) test whether ``device_id`` is already assigned here."""
        return device_id in self.assigned_ids

    def assigned_time_of(self, device_id: int) -> Optional[float]:
        """O(1) lookup of when ``device_id`` was assigned, if it was."""
        return self.assigned_ids.get(device_id)

    def record_assignment(self, device_id: int, now: float) -> None:
        """Record that ``device_id`` was matched to this request at ``now``."""
        if not self.is_open:
            raise ValueError(f"cannot assign to a {self.state.value} request")
        if self.remaining_demand <= 0:
            raise ValueError("request demand already satisfied")
        if device_id in self.assigned_ids:
            raise ValueError(
                f"device {device_id} is already assigned to this request"
            )
        self.assigned.append(device_id)
        self.assigned_ids[device_id] = now
        self.assigned_times.append(now)
        self.in_flight += 1
        self.remaining_demand = max(0, self.demand - len(self.assigned))
        if self.remaining_demand == 0:
            self.state = RequestState.COLLECTING
            self.acquired_time = now

    def record_assignments_bulk(self, device_ids: list, now: float) -> None:
        """Bulk twin of :meth:`record_assignment` for a same-time cohort.

        State-identical to calling :meth:`record_assignment` once per id in
        order (the batched decision path commits whole cohorts at one
        timestamp).  The same invariants are enforced, just once per batch
        instead of once per device: the request must be open, the batch
        must fit the remaining demand, and no id may already be assigned
        (ids within the batch are unique by construction — one device
        checks in at most once per dispatch cohort).
        """
        if not self.is_open:
            raise ValueError(f"cannot assign to a {self.state.value} request")
        if len(device_ids) > self.remaining_demand:
            raise ValueError("request demand already satisfied")
        assigned_ids = self.assigned_ids
        for device_id in device_ids:
            if device_id in assigned_ids:
                raise ValueError(
                    f"device {device_id} is already assigned to this request"
                )
        self.assigned.extend(device_ids)
        for device_id in device_ids:
            assigned_ids[device_id] = now
        self.assigned_times.extend([now] * len(device_ids))
        self.in_flight += len(device_ids)
        self.remaining_demand = max(0, self.demand - len(self.assigned))
        if self.remaining_demand == 0:
            self.state = RequestState.COLLECTING
            self.acquired_time = now

    def record_response(self, device_id: int, now: float) -> None:
        """Record a successful device report at time ``now``."""
        if device_id not in self.assigned_ids:
            raise ValueError(f"device {device_id} was never assigned to this request")
        self.responses[device_id] = now

    @property
    def scheduling_delay(self) -> Optional[float]:
        """Time from submission to full acquisition, if acquired."""
        if self.acquired_time is None:
            return None
        return self.acquired_time - self.submit_time

    @property
    def response_collection_time(self) -> Optional[float]:
        """Time from full acquisition to the closing response, if completed."""
        if self.acquired_time is None or self.close_time is None:
            return None
        if self.state is not RequestState.COMPLETED:
            return None
        return self.close_time - self.acquired_time

    @property
    def duration(self) -> Optional[float]:
        """End-to-end round duration (scheduling delay + collection time)."""
        if self.close_time is None:
            return None
        return self.close_time - self.submit_time


@dataclass
class Assignment:
    """A single device-to-request assignment decision made by a policy."""

    device_id: int
    job_id: int
    request_id: int
    time: float


__all__ = [
    "Assignment",
    "DeviceProfile",
    "JobSpec",
    "JobState",
    "RequestState",
    "ResourceRequest",
]
