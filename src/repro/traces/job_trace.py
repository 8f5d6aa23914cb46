"""CL job demand trace (Figure 8b).

The paper derives its workloads from a trace of real CL applications whose
per-job number of rounds reaches several thousand and whose per-round
participant demand reaches ~1500 devices, both heavy-tailed.  This module
generates a synthetic demand trace with the same marginals (log-normal with
configurable medians and caps) and exposes the summary statistics the
workload scenarios are defined against (above/below-average total demand,
above/below-average per-round demand).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class JobDemandEntry:
    """One job's demand profile from the trace."""

    #: Index of the entry within the trace.
    entry_id: int
    #: Number of training rounds the job runs.
    num_rounds: int
    #: Number of participant devices requested per round.
    demand_per_round: int
    #: Application label (keyboard, emoji, speech, ...).
    application: str = "generic"

    @property
    def total_demand(self) -> int:
        """Total device-participations over the job's lifetime."""
        return self.num_rounds * self.demand_per_round


@dataclass
class JobTraceConfig:
    """Parameters of the synthetic demand trace."""

    #: Median / sigma of the log-normal number of rounds.
    rounds_median: float = 400.0
    rounds_sigma: float = 1.0
    rounds_cap: int = 4000
    #: Median / sigma of the log-normal per-round participant demand.
    demand_median: float = 120.0
    demand_sigma: float = 1.0
    demand_cap: int = 1500
    #: Minimum values so every job is non-trivial.
    rounds_min: int = 10
    demand_min: int = 10
    #: Application labels sampled uniformly for annotation purposes.
    applications: Tuple[str, ...] = (
        "keyboard",
        "emoji",
        "speech",
        "health",
        "query",
        "dictation",
    )

    def __post_init__(self) -> None:
        if self.rounds_median <= 0 or self.demand_median <= 0:
            raise ValueError("medians must be positive")
        if self.rounds_min <= 0 or self.demand_min <= 0:
            raise ValueError("minimums must be positive")
        if self.rounds_cap < self.rounds_min or self.demand_cap < self.demand_min:
            raise ValueError("caps must be at least the minimums")


@dataclass
class JobDemandTrace:
    """A collection of :class:`JobDemandEntry` with summary statistics."""

    entries: List[JobDemandEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def mean_total_demand(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.total_demand for e in self.entries]))

    @property
    def mean_demand_per_round(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.demand_per_round for e in self.entries]))

    @property
    def mean_rounds(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.num_rounds for e in self.entries]))

    # ------------------------------------------------------------------ #
    # Scenario filters (§5.1 workload definitions)
    # ------------------------------------------------------------------ #
    def below_average_total(self) -> List[JobDemandEntry]:
        """Jobs with below-average *total* demand (the "Small" pool)."""
        mean = self.mean_total_demand
        return [e for e in self.entries if e.total_demand < mean]

    def above_average_total(self) -> List[JobDemandEntry]:
        """Jobs with above-average *total* demand (the "Large" pool)."""
        mean = self.mean_total_demand
        return [e for e in self.entries if e.total_demand >= mean]

    def below_average_per_round(self) -> List[JobDemandEntry]:
        """Jobs with below-average *per-round* demand (the "Low" pool)."""
        mean = self.mean_demand_per_round
        return [e for e in self.entries if e.demand_per_round < mean]

    def above_average_per_round(self) -> List[JobDemandEntry]:
        """Jobs with above-average *per-round* demand (the "High" pool)."""
        mean = self.mean_demand_per_round
        return [e for e in self.entries if e.demand_per_round >= mean]


class JobTraceGenerator:
    """Generates synthetic :class:`JobDemandTrace` objects."""

    def __init__(
        self,
        config: Optional[JobTraceConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or JobTraceConfig()
        self._rng = np.random.default_rng(seed)

    def sample_entry(self, entry_id: int) -> JobDemandEntry:
        cfg = self.config
        rounds = int(
            np.clip(
                np.exp(self._rng.normal(np.log(cfg.rounds_median), cfg.rounds_sigma)),
                cfg.rounds_min,
                cfg.rounds_cap,
            )
        )
        demand = int(
            np.clip(
                np.exp(self._rng.normal(np.log(cfg.demand_median), cfg.demand_sigma)),
                cfg.demand_min,
                cfg.demand_cap,
            )
        )
        app = str(self._rng.choice(cfg.applications))
        return JobDemandEntry(
            entry_id=entry_id,
            num_rounds=rounds,
            demand_per_round=demand,
            application=app,
        )

    def generate(self, num_entries: int) -> JobDemandTrace:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        return JobDemandTrace(
            entries=[self.sample_entry(i) for i in range(num_entries)]
        )


__all__ = [
    "JobDemandEntry",
    "JobDemandTrace",
    "JobTraceConfig",
    "JobTraceGenerator",
]
