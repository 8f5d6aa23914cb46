"""Baseline scheduling policies the paper compares against (§2.2, §5.1).

All production CL resource managers the paper surveys boil down to *random
device-to-job matching* in different forms:

* **Apple** (Paulik et al., 2021): client-driven — each device independently
  samples one job it is able to execute (:class:`ClientDrivenRandomPolicy`).
* **Meta** (Huba et al., 2022): centralised — the coordinator randomly
  matches each device with one eligible job
  (:class:`UniformRandomPolicy`).
* **Google** (Bonawitz et al., 2019): job-driven — each job samples from the
  available devices; from the device's point of view this weights jobs by
  their outstanding demand (:class:`JobDrivenRandomPolicy`).

The evaluation's "Random" baseline is the *optimized* variant
(:class:`RandomMatchingPolicy`): jobs are placed in a random but *fixed*
priority order so that devices concentrate on one job at a time, which
reduces round abortions under contention and makes for a stronger baseline —
exactly as described in §5.1.

In addition, the classical ordered policies used in the evaluation:

* :class:`FIFOPolicy` — earliest-arrived job first.
* :class:`SRSFPolicy` — smallest remaining service (total remaining demand)
  first.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .policy import BasePolicy, SeededRngMixin
from .types import JobSpec, ResourceRequest


class _OrderedPolicy(BasePolicy):
    """Shared machinery for policies that keep a priority order over jobs.

    Subclasses provide :meth:`job_priority`; at each check-in the device is
    offered to eligible open requests in ascending priority.
    """

    def job_priority(self, job_id: int, now: float) -> float:
        raise NotImplementedError

    def assign(self, device_id: int, now: float) -> Optional[ResourceRequest]:
        candidates = self.eligible_open_requests(device_id)
        if not candidates:
            return None
        candidates.sort(key=lambda r: (self.job_priority(r.job_id, now), r.job_id))
        return candidates[0]


class FIFOPolicy(_OrderedPolicy):
    """First-in-first-out: devices go to the earliest-arrived eligible job."""

    name = "fifo"

    def job_priority(self, job_id: int, now: float) -> float:
        return self.job_arrival.get(job_id, float("inf"))


class SRSFPolicy(_OrderedPolicy):
    """Shortest Remaining Service First.

    The remaining service of a CL job is its outstanding device demand
    (devices still needed this round plus future rounds).  SRSF is a strong
    single-resource heuristic but, as the paper's toy example (Figure 3)
    shows, it ignores *which* resources a job needs and therefore wastes
    scarce devices on jobs that could use abundant ones.
    """

    name = "srsf"

    def job_priority(self, job_id: int, now: float) -> float:
        return float(self.remaining_job_demand(job_id))


class RandomMatchingPolicy(SeededRngMixin, _OrderedPolicy):
    """The paper's optimized Random baseline.

    Devices are offered to eligible jobs following a randomized job order
    rather than by independent per-device sampling: each job draws a fresh
    random priority whenever it opens a round request.  Compared with uniform
    per-device sampling this concentrates devices on one job at a time within
    a round, which reduces round abortions under contention and makes for the
    stronger baseline described in §5.1.
    """

    name = "random"

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__()
        self._init_rng(seed)
        self._priorities: dict = {}

    def on_job_arrival(self, job: JobSpec, now: float) -> None:
        super().on_job_arrival(job, now)
        self._priorities[job.job_id] = float(self._rng.random())

    def on_request_open(self, request: ResourceRequest, now: float) -> None:
        super().on_request_open(request, now)
        # Re-randomise the job's place in the order for every round request.
        self._priorities[request.job_id] = float(self._rng.random())

    def on_job_finished(self, job_id: int, now: float) -> None:
        super().on_job_finished(job_id, now)
        self._priorities.pop(job_id, None)

    def job_priority(self, job_id: int, now: float) -> float:
        return self._priorities.get(job_id, 1.0)


class UniformRandomPolicy(SeededRngMixin, BasePolicy):
    """Meta-style centralised random matching.

    Every checked-in device is matched uniformly at random with one of the
    jobs it is eligible for.  This scatters devices across jobs and is the
    weakest baseline under contention.
    """

    name = "uniform_random"

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__()
        self._init_rng(seed)

    def assign(self, device_id: int, now: float) -> Optional[ResourceRequest]:
        candidates = self.eligible_open_requests(device_id)
        if not candidates:
            return None
        idx = int(self._rng.integers(0, len(candidates)))
        return candidates[idx]


class ClientDrivenRandomPolicy(UniformRandomPolicy):
    """Apple-style client-driven matching.

    Each client independently samples from the list of jobs it can execute.
    Because our simulator centralises the decision, the behaviour is the same
    uniform choice as :class:`UniformRandomPolicy`; the class exists so that
    experiments can label the three production designs separately.
    """

    name = "client_driven_random"


class JobDrivenRandomPolicy(SeededRngMixin, BasePolicy):
    """Google-style job-driven matching.

    Each job independently samples from the available devices.  Jobs with a
    larger outstanding demand issue more sampling attempts, so from a
    device's perspective the probability of landing on a job is proportional
    to that job's remaining demand.
    """

    name = "job_driven_random"

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__()
        self._init_rng(seed)

    def assign(self, device_id: int, now: float) -> Optional[ResourceRequest]:
        candidates = self.eligible_open_requests(device_id)
        if not candidates:
            return None
        weights = np.array(
            [max(1, c.remaining_demand) for c in candidates], dtype=float
        )
        weights /= weights.sum()
        idx = int(self._rng.choice(len(candidates), p=weights))
        return candidates[idx]


def make_policy(name: str, seed: Optional[int] = None, **kwargs) -> BasePolicy:
    """Factory used by experiments and benchmarks.

    Recognised names: ``random``, ``uniform_random``, ``client_driven_random``,
    ``job_driven_random``, ``fifo``, ``srsf``, ``venn``, ``venn_wo_sched``,
    ``venn_wo_match``.
    """
    from .scheduler import VennScheduler  # local import avoids a cycle

    name = name.lower()
    if name == "random":
        return RandomMatchingPolicy(seed=seed)
    if name == "uniform_random":
        return UniformRandomPolicy(seed=seed)
    if name == "client_driven_random":
        return ClientDrivenRandomPolicy(seed=seed)
    if name == "job_driven_random":
        return JobDrivenRandomPolicy(seed=seed)
    if name == "fifo":
        return FIFOPolicy()
    if name == "srsf":
        return SRSFPolicy()
    if name == "venn":
        return VennScheduler(seed=seed, **kwargs)
    if name == "venn_wo_sched":
        return VennScheduler(seed=seed, enable_scheduling=False, **kwargs)
    if name == "venn_wo_match":
        return VennScheduler(seed=seed, enable_matching=False, **kwargs)
    raise ValueError(f"unknown policy name: {name!r}")


#: Names accepted by :func:`make_policy`, in report order.
POLICY_NAMES: List[str] = [
    "random",
    "uniform_random",
    "client_driven_random",
    "job_driven_random",
    "fifo",
    "srsf",
    "venn_wo_sched",
    "venn_wo_match",
    "venn",
]


__all__ = [
    "ClientDrivenRandomPolicy",
    "FIFOPolicy",
    "JobDrivenRandomPolicy",
    "POLICY_NAMES",
    "RandomMatchingPolicy",
    "SRSFPolicy",
    "UniformRandomPolicy",
    "make_policy",
]
