"""Resource-homogeneous job groups (paper §4.2).

Venn first buckets jobs by their eligibility requirement: all jobs asking for
the same kind of device form one *job group* ``G_j`` and compete for the
same eligible device set ``S_j``.  Scheduling then happens at two
granularities:

* *intra-group*: jobs inside a group are ordered by (fairness-adjusted)
  remaining demand, smallest first (§4.2.1);
* *inter-group*: groups are ordered and intersected resources reallocated by
  Algorithm 1 (§4.2.2), implemented in :mod:`repro.core.irs`.

This module provides the bookkeeping for the groups themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from .requirements import EligibilityRequirement


@dataclass
class GroupJobEntry:
    """One job's standing inside its group's queue."""

    job_id: int
    #: Remaining demand used for intra-group ordering (devices still needed).
    remaining_demand: float
    #: Fairness-adjusted demand (equals ``remaining_demand`` when ε == 0).
    adjusted_demand: float
    #: Whether the job currently has an open, unsatisfied request.
    has_open_request: bool = True


@dataclass
class JobGroup:
    """All jobs that share one eligibility requirement."""

    requirement: EligibilityRequirement
    entries: Dict[int, GroupJobEntry] = field(default_factory=dict)
    #: Fairness-adjusted queue length (defaults to the raw queue length).
    adjusted_queue_length: float = 0.0

    @property
    def key(self) -> str:
        return self.requirement.name

    @property
    def queue_length(self) -> int:
        """Number of jobs in the group with open, unsatisfied requests."""
        return sum(1 for e in self.entries.values() if e.has_open_request)

    def ordered_jobs(self) -> List[GroupJobEntry]:
        """Jobs with open requests, smallest adjusted demand first (§4.2.1).

        Ties are broken by job id so the order is deterministic.
        """
        waiting = [e for e in self.entries.values() if e.has_open_request]
        return sorted(waiting, key=lambda e: (e.adjusted_demand, e.job_id))

    def head(self) -> Optional[GroupJobEntry]:
        """The highest-priority waiting job of the group (``G_j[0]``)."""
        ordered = self.ordered_jobs()
        return ordered[0] if ordered else None


class JobGroupRegistry:
    """Maintains the mapping requirement -> :class:`JobGroup`.

    The registry is rebuilt cheaply from a policy's job table whenever the
    scheduling plan is recomputed (on request arrival / completion), which is
    how the paper describes Algorithm 1 being invoked.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, JobGroup] = {}

    def clear(self) -> None:
        self._groups.clear()

    def upsert_job(
        self,
        job_id: int,
        requirement: EligibilityRequirement,
        remaining_demand: float,
        adjusted_demand: Optional[float] = None,
        has_open_request: bool = True,
    ) -> None:
        """Insert or refresh a job's entry in its group."""
        if remaining_demand < 0:
            raise ValueError("remaining_demand must be non-negative")
        group = self._groups.get(requirement.name)
        if group is None:
            group = JobGroup(requirement=requirement)
            self._groups[requirement.name] = group
        elif group.requirement != requirement:
            raise ValueError(
                f"requirement name {requirement.name!r} reused with a "
                "different definition"
            )
        group.entries[job_id] = GroupJobEntry(
            job_id=job_id,
            remaining_demand=float(remaining_demand),
            adjusted_demand=float(
                adjusted_demand if adjusted_demand is not None else remaining_demand
            ),
            has_open_request=has_open_request,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def groups(self) -> List[JobGroup]:
        return list(self._groups.values())

    def group(self, key: str) -> JobGroup:
        return self._groups[key]

    def __contains__(self, key: str) -> bool:
        return key in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    @staticmethod
    def from_jobs(
        jobs: Mapping[int, "object"],
        remaining_demand: Mapping[int, float],
        adjusted_demand: Optional[Mapping[int, float]] = None,
        open_jobs: Optional[Iterable[int]] = None,
    ) -> "JobGroupRegistry":
        """Build a registry snapshot from a policy's job table.

        Parameters
        ----------
        jobs:
            ``job_id -> JobSpec`` mapping.
        remaining_demand:
            ``job_id -> remaining demand`` (devices).
        adjusted_demand:
            Optional fairness-adjusted demands.
        open_jobs:
            Job ids that currently have an open request; defaults to all.
        """
        registry = JobGroupRegistry()
        open_set = set(open_jobs) if open_jobs is not None else set(jobs)
        for job_id, job in jobs.items():
            registry.upsert_job(
                job_id=job_id,
                requirement=job.requirement,
                remaining_demand=remaining_demand.get(job_id, 0.0),
                adjusted_demand=(
                    adjusted_demand.get(job_id) if adjusted_demand else None
                ),
                has_open_request=job_id in open_set,
            )
        return registry


__all__ = ["GroupJobEntry", "JobGroup", "JobGroupRegistry"]
