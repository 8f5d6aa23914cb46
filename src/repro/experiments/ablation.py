"""Ablation studies (§5.5): Figures 12, 13 and 14.

* **Figure 12** — Venn's (and FIFO's / SRSF's) improvement over random as the
  number of concurrent jobs grows; contention grows with the job count, so
  Venn's advantage should widen.
* **Figure 13** — Venn's improvement as a function of the number of device
  tiers used by the matching algorithm (1 disables matching entirely); gains
  should appear with 2+ tiers and then plateau.
* **Figure 14** — The fairness knob ε: the average-JCT speed-up shrinks as ε
  grows (14a) while the fraction of jobs meeting their fair-share JCT rises
  (14b).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import average_jct_speedup, fairness_satisfaction
from ..core.types import JobSpec
from .config import ExperimentConfig, default_config
from .endtoend import run_policies
from .environment import Environment, build_environment


def estimate_solo_jct(job: JobSpec, env: Environment) -> float:
    """Analytic estimate of a job's JCT without contention (``sd_i``).

    Without competing jobs, every eligible check-in goes to this job, so the
    per-round scheduling delay is roughly ``demand / eligible arrival rate``;
    the response collection time is approximated by twice the median task
    duration of the eligible devices (the tail of the log-normal response
    distribution).  Used for the fair-share targets of Figure 14.
    """
    eligible = [d for d in env.devices if job.requirement.is_eligible(d)]
    eligible_fraction = len(eligible) / max(1, len(env.devices))
    total_checkins = len(env.availability)
    horizon = max(env.availability.horizon, 1.0)
    arrival_rate = max(1e-9, total_checkins / horizon * eligible_fraction)
    sched_per_round = job.demand_per_round / arrival_rate
    median_speed = (
        float(np.median([d.speed_factor for d in eligible])) if eligible else 1.0
    )
    response_per_round = job.base_task_duration * median_speed * 2.0 + 15.0
    return job.num_rounds * (sched_per_round + response_per_round)


def figure12_num_jobs(
    config: Optional[ExperimentConfig] = None,
    job_counts: Sequence[int] = (25, 50, 75),
    policies: Sequence[str] = ("fifo", "srsf", "venn"),
) -> Dict[int, Dict[str, float]]:
    """Average-JCT improvement over random vs the number of concurrent jobs."""
    config = config or default_config()
    out: Dict[int, Dict[str, float]] = {}
    for n in job_counts:
        env = build_environment(config.with_jobs(n))
        results = run_policies(env, ("random",) + tuple(policies))
        speedups = average_jct_speedup(results, baseline="random")
        out[n] = {p: speedups[p] for p in policies}
    return out


def figure13_num_tiers(
    config: Optional[ExperimentConfig] = None,
    tier_counts: Sequence[int] = (1, 2, 3, 4),
    scenario: str = "low",
) -> Dict[int, float]:
    """Venn's improvement over random as a function of the tier count ``V``.

    The Low workload is used because matching matters most when contention is
    low (§5.3).
    """
    config = config or default_config()
    env = build_environment(config.with_scenario(scenario))
    baseline = run_policies(env, ("random",))["random"]
    out: Dict[int, float] = {}
    for v in tier_counts:
        results = run_policies(
            env, ("venn",), policy_kwargs={"venn": {"num_tiers": v}}
        )
        venn = results["venn"]
        out[v] = baseline.average_jct / max(venn.average_jct, 1e-9)
    return out


def figure14_fairness_knob(
    config: Optional[ExperimentConfig] = None,
    epsilons: Sequence[float] = (0.0, 1.0, 2.0, 4.0, 6.0),
    scenario: str = "even",
) -> Dict[float, Tuple[float, float]]:
    """Fairness-knob sweep: ``epsilon -> (JCT speed-up, fair-share ratio)``.

    The speed-up is over random matching; the fair-share ratio is the
    fraction of jobs whose JCT is within ``M × sd_i`` (Figure 14b).
    """
    config = config or default_config()
    env = build_environment(config.with_scenario(scenario))
    solo = {
        job.job_id: estimate_solo_jct(job, env) for job in env.workload.jobs
    }
    baseline = run_policies(env, ("random",))["random"]
    out: Dict[float, Tuple[float, float]] = {}
    for eps in epsilons:
        results = run_policies(
            env, ("venn",), policy_kwargs={"venn": {"epsilon": eps}}
        )
        venn = results["venn"]
        speedup = baseline.average_jct / max(venn.average_jct, 1e-9)
        fairness = fairness_satisfaction(venn, solo, num_jobs=len(env.workload.jobs))
        out[eps] = (speedup, fairness)
    return out


__all__ = [
    "estimate_solo_jct",
    "figure12_num_jobs",
    "figure13_num_tiers",
    "figure14_fairness_knob",
]
