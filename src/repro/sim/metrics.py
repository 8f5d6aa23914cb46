"""Simulation metrics: JCT, scheduling delay and response-collection time.

The paper's primary metric is the average job completion time (JCT); its
analysis figures additionally break JCT into scheduling delay and response
collection time (Figure 1 / Figure 5) and slice improvements by job size and
eligibility category (Tables 2 and 3).  This module computes all of those
from the simulator's per-job round records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .job import JobRuntime


@dataclass
class JobMetrics:
    """Metrics of a single job after a simulation run."""

    job_id: int
    name: str
    category: str
    demand_per_round: int
    num_rounds: int
    total_demand: int
    arrival_time: float
    completed: bool
    jct: Optional[float]
    #: Per-completed-round scheduling delays / response collection times.
    scheduling_delays: List[float] = field(default_factory=list)
    response_times: List[float] = field(default_factory=list)
    #: Per-completed-round reporting sets (sorted device ids that reported
    #: before the round closed) and absolute completion times, in round
    #: order.  These are what couple the simulator to federated training:
    #: after the run, the co-simulation layer trains exactly these
    #: participants and places the resulting accuracy at exactly these
    #: times.
    round_participants: List[Sequence[int]] = field(default_factory=list)
    round_completion_times: List[float] = field(default_factory=list)
    #: Per-completed-round durations of the successful attempt, submit to
    #: close — the round-completion-time (FCT-analogue) distribution the
    #: network-degradation scenarios are judged on.
    round_durations: List[float] = field(default_factory=list)
    aborted_rounds: int = 0
    rounds_completed: int = 0
    #: Per-round deadline of the job's spec; 0 means unknown (job excluded
    #: from deadline-based SLO accounting).
    round_deadline: float = 0.0

    @property
    def slo_target(self) -> float:
        """Deadline-derived JCT budget: every round finishing exactly at its
        deadline once, with no aborted attempts.  0 when the deadline is
        unknown."""
        return self.num_rounds * self.round_deadline

    @property
    def mean_scheduling_delay(self) -> float:
        return float(np.mean(self.scheduling_delays)) if self.scheduling_delays else 0.0

    @property
    def mean_response_time(self) -> float:
        return float(np.mean(self.response_times)) if self.response_times else 0.0


@dataclass
class SimulationMetrics:
    """Aggregate metrics of one simulation run."""

    policy: str
    horizon: float
    jobs: Dict[int, JobMetrics] = field(default_factory=dict)
    #: Total device check-ins observed during the run.
    total_checkins: int = 0
    #: Total successful task responses.
    total_responses: int = 0
    #: Total device-task failures (dropouts / offline).
    total_failures: int = 0
    #: Total aborted round attempts across all jobs.
    total_aborts: int = 0
    #: Plan-maintenance profile snapshot (policies that expose a
    #: ``plan_profile``, i.e. Venn; ``None`` otherwise).  See
    #: :class:`repro.sim.profile.PlanMaintenanceProfile`.
    plan_maintenance: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # JCT aggregates
    # ------------------------------------------------------------------ #
    def job_jcts(self, censor_to_horizon: bool = True) -> Dict[int, float]:
        """JCT per job; unfinished jobs are censored to the horizon.

        Censoring keeps cross-policy comparisons meaningful: a policy that
        fails to finish a job within the horizon is charged at least the
        horizon-minus-arrival time for it.
        """
        out: Dict[int, float] = {}
        for job_id, jm in self.jobs.items():
            if jm.jct is not None:
                out[job_id] = jm.jct
            elif censor_to_horizon:
                out[job_id] = max(0.0, self.horizon - jm.arrival_time)
        return out

    @property
    def average_jct(self) -> float:
        """Average JCT over all jobs (unfinished censored to the horizon)."""
        jcts = list(self.job_jcts().values())
        return float(np.mean(jcts)) if jcts else 0.0

    @property
    def average_completed_jct(self) -> float:
        """Average JCT over completed jobs only."""
        jcts = [m.jct for m in self.jobs.values() if m.jct is not None]
        return float(np.mean(jcts)) if jcts else 0.0

    @property
    def completion_rate(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(1 for m in self.jobs.values() if m.completed) / len(self.jobs)

    @property
    def average_scheduling_delay(self) -> float:
        delays = [d for m in self.jobs.values() for d in m.scheduling_delays]
        return float(np.mean(delays)) if delays else 0.0

    @property
    def average_response_time(self) -> float:
        times = [t for m in self.jobs.values() for t in m.response_times]
        return float(np.mean(times)) if times else 0.0

    def jct_percentile(self, p: float) -> float:
        """``p``-th percentile of per-job JCTs (censored to the horizon).

        Returns 0.0 for an empty run.  With a single job every percentile is
        that job's JCT; numpy's linear interpolation handles the rest.
        """
        if not (0.0 <= p <= 100.0):
            raise ValueError("percentile must be in [0, 100]")
        jcts = list(self.job_jcts().values())
        if not jcts:
            return 0.0
        return float(np.percentile(np.asarray(jcts, dtype=float), p))

    def jct_percentiles(
        self, percentiles: Sequence[float] = (50.0, 99.0)
    ) -> Dict[float, float]:
        """Several JCT percentiles at once (sweep rows report p50/p99)."""
        return {float(p): self.jct_percentile(p) for p in percentiles}

    # ------------------------------------------------------------------ #
    # Round-completion times (FCT analogue)
    # ------------------------------------------------------------------ #
    def round_durations(self) -> List[float]:
        """Pooled per-round completion times (successful attempt, submit to
        close) across all jobs, in job-id order then round order.

        This is the simulator's flow-completion-time analogue: network
        degradation (loss retries, link flaps, slow link tiers) shows up
        here long before it moves the per-job JCT aggregates.
        """
        out: List[float] = []
        for job_id in sorted(self.jobs):
            out.extend(self.jobs[job_id].round_durations)
        return out

    @property
    def average_round_duration(self) -> float:
        durations = self.round_durations()
        return float(np.mean(durations)) if durations else 0.0

    def round_duration_percentile(self, p: float) -> float:
        """``p``-th percentile of pooled round-completion times (0.0 when
        no round completed)."""
        if not (0.0 <= p <= 100.0):
            raise ValueError("percentile must be in [0, 100]")
        durations = self.round_durations()
        if not durations:
            return 0.0
        return float(np.percentile(np.asarray(durations, dtype=float), p))

    @property
    def error_rate(self) -> float:
        """Fraction of device responses that were failures (dropouts)."""
        attempts = self.total_responses + self.total_failures
        if attempts <= 0:
            return 0.0
        return self.total_failures / attempts

    def sla_attainment(self, slo_scale: float = 2.0) -> float:
        """Fraction of jobs that completed within ``slo_scale ×`` their
        deadline-derived JCT budget (:attr:`JobMetrics.slo_target`).

        A job's budget is ``num_rounds × round_deadline`` — the JCT it would
        have if every round barely met its deadline with no aborts — so
        ``slo_scale`` is the number of "worst-case rounds" the operator
        tolerates per round on average.  Jobs with a degenerate budget
        (``round_deadline <= 0``, hence ``slo_target <= 0``) carry no SLO
        and are excluded from both the numerator and the denominator — a
        zero deadline means "no deadline recorded", not "impossible SLA",
        so such jobs must not drag attainment toward zero.  An unfinished
        job never attains its SLA.  Returns 0.0 when no job carries a
        positive budget.
        """
        if slo_scale <= 0:
            raise ValueError("slo_scale must be positive")
        counted = 0
        attained = 0
        for jm in self.jobs.values():
            target = jm.slo_target
            if target <= 0:
                continue
            counted += 1
            if jm.completed and jm.jct is not None and jm.jct <= slo_scale * target:
                attained += 1
        return attained / counted if counted else 0.0

    # ------------------------------------------------------------------ #
    # Slicing (Tables 2 and 3)
    # ------------------------------------------------------------------ #
    def jct_by_category(self) -> Dict[str, float]:
        """Average JCT per eligibility category."""
        buckets: Dict[str, List[float]] = {}
        jcts = self.job_jcts()
        for job_id, jm in self.jobs.items():
            buckets.setdefault(jm.category, []).append(jcts[job_id])
        return {cat: float(np.mean(v)) for cat, v in buckets.items()}

    def jct_by_demand_percentile(
        self, percentiles: Sequence[float] = (25.0, 50.0, 75.0)
    ) -> Dict[float, float]:
        """Average JCT of jobs at or below each demand percentile.

        For each requested percentile ``p`` the cut is
        ``np.percentile(total demands, p)`` and the bucket is the jobs whose
        total demand is **inclusively** ``<= cut`` — a job sitting exactly
        on the percentile value belongs to that percentile's bucket, and
        ties at the cut are all included, so buckets are monotone supersets
        as ``p`` grows.  The inclusive cut also guarantees every bucket for
        ``p >= 0`` is non-empty when any job exists (the minimum-demand job
        always qualifies), so the output is NaN-free by construction; an
        empty metrics object (or a degenerate bucket) yields ``0.0`` rather
        than ``NaN``.  Keys are normalised to ``float`` so callers indexing
        with ``25`` vs ``25.0`` agree.
        """
        if not self.jobs:
            return {float(p): 0.0 for p in percentiles}
        totals = np.array([m.total_demand for m in self.jobs.values()], dtype=float)
        jcts = self.job_jcts()
        out: Dict[float, float] = {}
        for p in percentiles:
            cut = float(np.percentile(totals, p))
            selected = [
                jcts[j] for j, m in self.jobs.items() if m.total_demand <= cut
            ]
            out[float(p)] = float(np.mean(selected)) if selected else 0.0
        return out


def collect_job_metrics(
    runtime: JobRuntime, category: str = "general"
) -> JobMetrics:
    """Build a :class:`JobMetrics` from a finished (or censored) job runtime."""
    spec = runtime.spec
    sched = [
        r.scheduling_delay
        for r in runtime.rounds
        if r.completed and r.scheduling_delay is not None
    ]
    resp = [
        r.response_collection_time
        for r in runtime.rounds
        if r.completed and r.response_collection_time is not None
    ]
    participants = [list(r.participants) for r in runtime.rounds if r.completed]
    completions = [
        r.completion_time
        for r in runtime.rounds
        if r.completed and r.completion_time is not None
    ]
    durations = [
        r.duration
        for r in runtime.rounds
        if r.completed and r.duration is not None
    ]
    aborted = sum(r.aborted_attempts for r in runtime.rounds)
    # Count aborted attempts of the in-flight round as well.
    aborted += runtime.attempt
    return JobMetrics(
        job_id=spec.job_id,
        name=spec.name,
        category=category,
        demand_per_round=spec.demand_per_round,
        num_rounds=spec.num_rounds,
        total_demand=spec.total_demand,
        arrival_time=spec.arrival_time,
        completed=runtime.is_finished,
        jct=runtime.jct,
        scheduling_delays=sched,
        response_times=resp,
        round_participants=participants,
        round_completion_times=completions,
        round_durations=durations,
        aborted_rounds=aborted,
        rounds_completed=runtime.rounds_completed,
        round_deadline=spec.round_deadline,
    )


def speedup_over(
    baseline: SimulationMetrics, other: SimulationMetrics
) -> float:
    """Average-JCT speed-up of ``other`` relative to ``baseline`` (>1 is better)."""
    other_jct = other.average_jct
    if other_jct <= 0:
        return float("inf")
    return baseline.average_jct / other_jct


def per_job_speedups(
    baseline: SimulationMetrics, other: SimulationMetrics
) -> Dict[int, float]:
    """Per-job JCT speed-ups of ``other`` relative to ``baseline``."""
    base = baseline.job_jcts()
    new = other.job_jcts()
    out: Dict[int, float] = {}
    for job_id, b in base.items():
        n = new.get(job_id)
        if n is None or n <= 0:
            continue
        out[job_id] = b / n
    return out


__all__ = [
    "JobMetrics",
    "SimulationMetrics",
    "collect_job_metrics",
    "per_job_speedups",
    "speedup_over",
]
