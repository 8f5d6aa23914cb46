"""Starvation prevention / fairness knob ε (paper §4.4).

Venn's smallest-demand-first ordering can starve large jobs.  To bound the
damage, Venn guarantees that a job's scheduling latency is no worse than
*fair sharing*, defined as ``T_i = M * sd_i`` where ``M`` is the number of
simultaneous jobs and ``sd_i`` the job's JCT without contention.  It then
scales

* each job's demand        ``d'_i = d_i * (t_i / T_i) ** ε`` and
* each group's queue length ``q'_j = q_j * (Σ T_i / Σ t_i) ** ε``

where ``t_i`` is the time the job has spent in the system so far.  Jobs (and
groups) that have consumed only a small fraction of their fair-share time get
their effective demand shrunk — i.e. they are *boosted* — while jobs already
past their fair share lose priority.  ``ε = 0`` disables the knob (pure
Algorithm 1); ``ε → ∞`` yields maximum fairness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .types import JobSpec

#: Ratios are clipped to this range before exponentiation so that extreme
#: ε values cannot overflow or zero-out demands entirely.
_RATIO_MIN = 1e-3
_RATIO_MAX = 1e3


@dataclass
class FairnessRecord:
    """Per-job fairness state."""

    job_id: int
    arrival_time: float
    #: Estimated JCT without contention (``sd_i``).
    solo_jct: float


def default_solo_jct_estimator(job: JobSpec) -> float:
    """Crude contention-free JCT estimate ``sd_i`` of the fairness controller.

    Without contention the scheduling delay is negligible, so the solo JCT is
    approximately ``num_rounds × (task duration × straggler factor)``.  The
    straggler factor accounts for waiting on the round's tail response; 2× the
    median task duration is a reasonable default for log-normal latencies.
    """
    return job.num_rounds * job.base_task_duration * 2.0


class FairnessController:
    """Tracks fair-share targets and produces adjusted demands / queue lengths.

    Parameters
    ----------
    epsilon:
        The fairness knob ``ε >= 0``.  ``0`` disables all adjustment.

    A job's contention-free JCT ``sd_i`` is
    :func:`default_solo_jct_estimator` unless :meth:`register_job` is given
    one.
    """

    def __init__(self, epsilon: float = 0.0) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.epsilon = float(epsilon)
        self._records: Dict[int, FairnessRecord] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_job(
        self, job: JobSpec, now: float, solo_jct: Optional[float] = None
    ) -> None:
        """Start tracking ``job`` (idempotent refresh of the estimate)."""
        if solo_jct is None:
            solo_jct = default_solo_jct_estimator(job)
        sd = float(solo_jct)
        if sd <= 0:
            raise ValueError("solo JCT estimate must be positive")
        self._records[job.job_id] = FairnessRecord(
            job_id=job.job_id, arrival_time=now, solo_jct=sd
        )

    def forget_job(self, job_id: int) -> None:
        self._records.pop(job_id, None)

    # ------------------------------------------------------------------ #
    # Fair-share quantities
    # ------------------------------------------------------------------ #
    def fair_share_jct(self, job_id: int, num_active_jobs: int) -> float:
        """``T_i = M * sd_i`` for the job."""
        record = self._records[job_id]
        return max(1, num_active_jobs) * record.solo_jct

    def elapsed(self, job_id: int, now: float) -> float:
        """``t_i``: time the job has spent in the system so far."""
        record = self._records[job_id]
        return max(0.0, now - record.arrival_time)

    def _ratio_power(self, ratio: float) -> float:
        ratio = min(max(ratio, _RATIO_MIN), _RATIO_MAX)
        return math.pow(ratio, self.epsilon)

    # ------------------------------------------------------------------ #
    # Adjustments used by the scheduler
    # ------------------------------------------------------------------ #
    def adjusted_demand(
        self, job_id: int, raw_demand: float, now: float, num_active_jobs: int
    ) -> float:
        """``d'_i = d_i * (t_i / T_i) ** ε`` (raw demand when ε == 0)."""
        if self.epsilon == 0.0 or job_id not in self._records:
            return float(raw_demand)
        t_i = self.elapsed(job_id, now)
        T_i = self.fair_share_jct(job_id, num_active_jobs)
        if t_i <= 0:
            # A job that just arrived has consumed none of its fair share; use
            # the minimum ratio so that it gets the strongest boost available.
            return float(raw_demand) * self._ratio_power(_RATIO_MIN)
        return float(raw_demand) * self._ratio_power(t_i / T_i)

    def adjusted_queue_length(
        self,
        job_ids: Iterable[int],
        raw_queue_length: float,
        now: float,
        num_active_jobs: int,
    ) -> float:
        """``q'_j = q_j * (Σ T_i / Σ t_i) ** ε`` over the group's jobs."""
        if self.epsilon == 0.0:
            return float(raw_queue_length)
        tracked = [j for j in job_ids if j in self._records]
        if not tracked:
            return float(raw_queue_length)
        total_T = sum(self.fair_share_jct(j, num_active_jobs) for j in tracked)
        total_t = sum(self.elapsed(j, now) for j in tracked)
        if total_t <= 0:
            return float(raw_queue_length) * self._ratio_power(_RATIO_MAX)
        return float(raw_queue_length) * self._ratio_power(total_T / total_t)


__all__ = [
    "FairnessController",
    "FairnessRecord",
    "default_solo_jct_estimator",
]
