"""Workload scenarios used in the evaluation (§5.1, §5.4).

A *workload* is a set of :class:`~repro.core.types.JobSpec` objects — jobs
sampled from the demand trace (Figure 8b), mapped to one of the four device
eligibility categories (Figure 8a) and arriving over time via a Poisson
process with a 30-minute mean inter-arrival.

The five demand scenarios of §5.1 sample differently from the trace:

* ``even``  — uniformly from all jobs (the default);
* ``small`` — only jobs with below-average **total** demand;
* ``large`` — only jobs with above-average **total** demand;
* ``low``   — only jobs with below-average **per-round** demand;
* ``high``  — only jobs with above-average **per-round** demand.

The four biased scenarios of §5.4 keep the demand distribution even but bias
the *category* assignment: half of the jobs request the focal category, the
rest are spread evenly over the other three.

Because this reproduction runs on a laptop-scale simulator rather than a
planetary device population, the generator supports scaling knobs
(``rounds_scale``, ``demand_scale``, caps) that shrink job sizes while
preserving the relative structure of the trace; the presets of
:mod:`repro.experiments.config` hold the values every reproduced table and
figure uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.requirements import (
    COMPUTE_RICH,
    DEFAULT_CATEGORIES,
    EligibilityRequirement,
    GENERAL,
    HIGH_PERFORMANCE,
    MEMORY_RICH,
)
from ..core.types import JobSpec
from .job_trace import JobDemandEntry, JobDemandTrace, JobTraceConfig, JobTraceGenerator

#: Demand scenarios of §5.1.
DEMAND_SCENARIOS: Tuple[str, ...] = ("even", "small", "large", "low", "high")

#: Category-bias scenarios of §5.4 mapped to the focal requirement.
BIAS_SCENARIOS: Dict[str, EligibilityRequirement] = {
    "general_heavy": GENERAL,
    "compute_heavy": COMPUTE_RICH,
    "memory_heavy": MEMORY_RICH,
    "resource_heavy": HIGH_PERFORMANCE,
}


@dataclass
class WorkloadConfig:
    """Knobs controlling workload generation."""

    #: Number of jobs in the workload (50 in the default simulation setup).
    num_jobs: int = 50
    #: One of :data:`DEMAND_SCENARIOS`.
    scenario: str = "even"
    #: One of :data:`BIAS_SCENARIOS` keys, or ``None`` for the unbiased
    #: uniform category assignment.
    category_bias: Optional[str] = None
    #: Fraction of jobs assigned to the focal category when biased (§5.4).
    bias_fraction: float = 0.5
    #: Mean of the exponential job inter-arrival time, seconds (30 min).
    mean_interarrival: float = 1800.0
    #: Per-round deadline bounds (5 - 15 minutes in the paper), seconds.
    deadline_min: float = 300.0
    deadline_max: float = 900.0
    #: Fraction of the per-round demand that must report back (0.8).
    min_report_fraction: float = 0.8
    #: Median on-device task duration, seconds.
    base_task_duration: float = 60.0
    #: Scaling applied to the trace's number of rounds / per-round demand so
    #: the workload fits the simulated device pool.  1.0 keeps paper scale.
    rounds_scale: float = 1.0
    demand_scale: float = 1.0
    #: Hard caps applied after scaling (0 disables the cap).
    max_rounds: int = 0
    max_demand: int = 0
    #: Minimums applied after scaling.
    min_rounds: int = 1
    min_demand: int = 5
    #: Size of the underlying demand trace the scenario samples from.
    trace_size: int = 400
    #: Configuration of the underlying demand trace.
    trace_config: JobTraceConfig = field(default_factory=JobTraceConfig)

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        if self.scenario not in DEMAND_SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of "
                f"{DEMAND_SCENARIOS}"
            )
        if self.category_bias is not None and self.category_bias not in BIAS_SCENARIOS:
            raise ValueError(
                f"unknown category bias {self.category_bias!r}; expected one of "
                f"{tuple(BIAS_SCENARIOS)}"
            )
        if not (0.0 < self.bias_fraction <= 1.0):
            raise ValueError("bias_fraction must be in (0, 1]")
        # NaN fails every comparison below, and an infinite deadline passes
        # them: check finiteness first, so neither reaches ``generate``.
        for name in ("mean_interarrival", "deadline_min", "deadline_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        if self.mean_interarrival < 0:
            raise ValueError("mean_interarrival must be non-negative")
        if self.deadline_min <= 0 or self.deadline_max < self.deadline_min:
            raise ValueError("need 0 < deadline_min <= deadline_max")
        if self.rounds_scale <= 0 or self.demand_scale <= 0:
            raise ValueError("scales must be positive")


@dataclass
class Workload:
    """A generated workload: jobs plus the trace they were sampled from."""

    config: WorkloadConfig
    jobs: List[JobSpec]
    trace: JobDemandTrace
    #: Category requirement name assigned to each job id.
    categories: Dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def total_demand(self) -> int:
        return sum(j.total_demand for j in self.jobs)


class WorkloadGenerator:
    """Samples workloads according to the paper's scenarios."""

    def __init__(self, config: Optional[WorkloadConfig] = None, seed: Optional[int] = None):
        self.config = config or WorkloadConfig()
        self._rng = np.random.default_rng(seed)
        # Derive a child seed so the trace is stable given the workload seed.
        trace_seed = int(self._rng.integers(0, 2**31 - 1))
        self._trace_generator = JobTraceGenerator(
            config=self.config.trace_config, seed=trace_seed
        )

    # ------------------------------------------------------------------ #
    # Scenario sampling
    # ------------------------------------------------------------------ #
    def _scenario_pool(self, trace: JobDemandTrace) -> List[JobDemandEntry]:
        scenario = self.config.scenario
        if scenario == "even":
            pool = list(trace.entries)
        elif scenario == "small":
            pool = trace.below_average_total()
        elif scenario == "large":
            pool = trace.above_average_total()
        elif scenario == "low":
            pool = trace.below_average_per_round()
        elif scenario == "high":
            pool = trace.above_average_per_round()
        else:  # pragma: no cover - guarded by WorkloadConfig
            raise ValueError(f"unknown scenario {scenario!r}")
        if not pool:
            raise ValueError(
                f"scenario {scenario!r} produced an empty sampling pool; "
                "increase trace_size"
            )
        return pool

    def _assign_categories(self, num_jobs: int) -> List[EligibilityRequirement]:
        cfg = self.config
        categories = list(DEFAULT_CATEGORIES)
        if cfg.category_bias is None:
            idx = self._rng.integers(0, len(categories), size=num_jobs)
            return [categories[int(i)] for i in idx]
        focal = BIAS_SCENARIOS[cfg.category_bias]
        others = [c for c in categories if c.name != focal.name]
        out: List[EligibilityRequirement] = []
        for _ in range(num_jobs):
            if self._rng.random() < cfg.bias_fraction:
                out.append(focal)
            else:
                out.append(others[int(self._rng.integers(0, len(others)))])
        return out

    def _scaled(self, value: float, scale: float, minimum: int, cap: int) -> int:
        scaled = int(round(value * scale))
        scaled = max(minimum, scaled)
        if cap > 0:
            scaled = min(cap, scaled)
        return scaled

    def _deadline_for(self, demand: int, max_demand: int) -> float:
        """Deadline grows with the round demand (5-15 min in the paper)."""
        cfg = self.config
        if max_demand <= 0:
            return cfg.deadline_min
        frac = min(1.0, demand / max_demand)
        return cfg.deadline_min + frac * (cfg.deadline_max - cfg.deadline_min)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self, start_job_id: int = 0) -> Workload:
        """Generate the workload described by the configuration."""
        cfg = self.config
        trace = self._trace_generator.generate(cfg.trace_size)
        pool = self._scenario_pool(trace)
        picks = [
            pool[int(i)] for i in self._rng.integers(0, len(pool), size=cfg.num_jobs)
        ]
        categories = self._assign_categories(cfg.num_jobs)

        # Poisson arrivals: exponential inter-arrival gaps.
        if cfg.mean_interarrival > 0:
            gaps = self._rng.exponential(cfg.mean_interarrival, size=cfg.num_jobs)
        else:
            gaps = np.zeros(cfg.num_jobs)
        arrivals = np.cumsum(gaps)
        max_scaled_demand = max(
            self._scaled(e.demand_per_round, cfg.demand_scale, cfg.min_demand, cfg.max_demand)
            for e in picks
        )

        jobs: List[JobSpec] = []
        category_map: Dict[int, str] = {}
        for k, (entry, requirement) in enumerate(zip(picks, categories)):
            job_id = start_job_id + k
            rounds = self._scaled(
                entry.num_rounds, cfg.rounds_scale, cfg.min_rounds, cfg.max_rounds
            )
            demand = self._scaled(
                entry.demand_per_round, cfg.demand_scale, cfg.min_demand, cfg.max_demand
            )
            job = JobSpec(
                job_id=job_id,
                requirement=requirement,
                demand_per_round=demand,
                num_rounds=rounds,
                arrival_time=float(arrivals[k]),
                round_deadline=self._deadline_for(demand, max_scaled_demand),
                min_report_fraction=cfg.min_report_fraction,
                base_task_duration=cfg.base_task_duration,
                name=f"{entry.application}-{job_id}",
            )
            jobs.append(job)
            category_map[job_id] = requirement.name
        return Workload(config=cfg, jobs=jobs, trace=trace, categories=category_map)


__all__ = [
    "BIAS_SCENARIOS",
    "DEMAND_SCENARIOS",
    "Workload",
    "WorkloadConfig",
    "WorkloadGenerator",
]
