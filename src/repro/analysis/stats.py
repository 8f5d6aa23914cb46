"""Cross-policy statistics: the speed-up numbers the paper's tables report.

Every evaluation table in the paper is a ratio of average JCTs: "how much
faster is policy X than random matching" either overall (Table 1, Table 4,
Figure 12) or restricted to a slice of jobs (Table 2 by total-demand
percentile, Table 3 by eligibility category).  The helpers here turn a
mapping ``policy name -> SimulationMetrics`` into exactly those numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..sim.metrics import SimulationMetrics


def average_jct_speedup(
    results: Mapping[str, SimulationMetrics], baseline: str = "random"
) -> Dict[str, float]:
    """Average-JCT speed-up of every policy relative to ``baseline``."""
    if baseline not in results:
        raise KeyError(f"baseline {baseline!r} missing from results")
    base = results[baseline].average_jct
    out: Dict[str, float] = {}
    for name, metrics in results.items():
        jct = metrics.average_jct
        out[name] = float("inf") if jct <= 0 else base / jct
    return out


def jct_speedup_by_category(
    results: Mapping[str, SimulationMetrics],
    policy: str,
    baseline: str = "random",
) -> Dict[str, float]:
    """Per-eligibility-category speed-up of ``policy`` over ``baseline`` (Table 3)."""
    base_by_cat = results[baseline].jct_by_category()
    new_by_cat = results[policy].jct_by_category()
    out: Dict[str, float] = {}
    for category, base_jct in base_by_cat.items():
        new_jct = new_by_cat.get(category)
        if new_jct is None or new_jct <= 0:
            continue
        out[category] = base_jct / new_jct
    return out


def jct_speedup_by_demand_percentile(
    results: Mapping[str, SimulationMetrics],
    policy: str,
    baseline: str = "random",
    percentiles: Sequence[float] = (25.0, 50.0, 75.0),
) -> Dict[float, float]:
    """Speed-up over the jobs with the smallest total demands (Table 2)."""
    base = results[baseline].jct_by_demand_percentile(percentiles)
    new = results[policy].jct_by_demand_percentile(percentiles)
    out: Dict[float, float] = {}
    for p in percentiles:
        if new.get(p, 0.0) <= 0:
            continue
        out[p] = base[p] / new[p]
    return out


@dataclass
class BreakdownRow:
    """One row of a scheduling-delay / response-time breakdown (Figure 5)."""

    label: str
    scheduling_delay: float
    response_time: float

    @property
    def total(self) -> float:
        return self.scheduling_delay + self.response_time


def jct_breakdown(metrics: SimulationMetrics, label: str = "") -> BreakdownRow:
    """Average scheduling delay vs response time of one run (Figure 5)."""
    return BreakdownRow(
        label=label or metrics.policy,
        scheduling_delay=metrics.average_scheduling_delay,
        response_time=metrics.average_response_time,
    )


def mean_confidence_interval(
    values: Iterable[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(mean, low, high)`` Student-t confidence interval of the mean.

    Degenerate inputs collapse cleanly instead of raising: an empty sample
    returns ``(0.0, 0.0, 0.0)``, and a single sample or a zero-variance
    sample returns a zero-width interval at the mean (there is no spread
    to infer an interval from).  Sweep aggregates lean on this when a
    (scenario, policy, target) bucket ends up with 0 or 1 attaining jobs.
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    vals = np.asarray([float(v) for v in values], dtype=float)
    if vals.size == 0:
        return (0.0, 0.0, 0.0)
    mean = float(vals.mean())
    if vals.size == 1:
        return (mean, mean, mean)
    sem = float(vals.std(ddof=1)) / math.sqrt(vals.size)
    if sem == 0.0:
        return (mean, mean, mean)
    from scipy import stats as scipy_stats

    half = float(scipy_stats.t.ppf((1.0 + confidence) / 2.0, vals.size - 1)) * sem
    return (mean, mean - half, mean + half)


def fairness_satisfaction(
    metrics: SimulationMetrics,
    solo_jcts: Mapping[int, float],
    num_jobs: Optional[int] = None,
) -> float:
    """Fraction of jobs whose JCT meets the fair-share target (Figure 14b).

    The fair-share JCT of a job is ``M * sd_i`` where ``sd_i`` is its
    contention-free JCT (provided by the caller, typically from a solo
    simulation or an analytic estimate) and ``M`` the number of jobs.
    """
    if not metrics.jobs:
        return 0.0
    M = num_jobs if num_jobs is not None else len(metrics.jobs)
    jcts = metrics.job_jcts()
    satisfied = 0
    counted = 0
    for job_id, jct in jcts.items():
        solo = solo_jcts.get(job_id)
        if solo is None or solo <= 0:
            continue
        counted += 1
        if jct <= M * solo:
            satisfied += 1
    return satisfied / counted if counted else 0.0


def summarize_run(metrics: SimulationMetrics) -> Dict[str, float]:
    """Flat dictionary of headline numbers for logging / reports."""
    return {
        "average_jct": metrics.average_jct,
        "average_completed_jct": metrics.average_completed_jct,
        "completion_rate": metrics.completion_rate,
        "average_scheduling_delay": metrics.average_scheduling_delay,
        "average_response_time": metrics.average_response_time,
        "total_aborts": float(metrics.total_aborts),
        "total_checkins": float(metrics.total_checkins),
        "total_responses": float(metrics.total_responses),
        "total_failures": float(metrics.total_failures),
    }


__all__ = [
    "BreakdownRow",
    "average_jct_speedup",
    "fairness_satisfaction",
    "jct_breakdown",
    "jct_speedup_by_category",
    "jct_speedup_by_demand_percentile",
    "mean_confidence_interval",
    "summarize_run",
]
