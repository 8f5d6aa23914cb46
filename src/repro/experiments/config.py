"""Experiment configuration presets.

The paper's evaluation runs at planetary scale (hundreds of thousands of
device check-ins, jobs with thousands of rounds).  This reproduction keeps
the *structure* — the same workload scenarios, the same eligibility
categories, the same policies — but scales the sizes so every experiment runs
on a laptop in seconds to minutes.  ``python -m repro.experiments.runner
--preset NAME`` regenerates every table and figure at one preset.

Three presets are provided:

* ``quick``   — used by the test-suite, incl. the paper-claim tests (seconds).
* ``default`` — used by the example scripts and the experiment runner
  (tens of seconds per policy).
* ``large``   — closer to the paper's scale (minutes per policy); useful for
  checking that trends persist as the system grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from ..sim.engine import SimulationConfig
from ..sim.latency import LatencyConfig
from ..traces.capacity import CapacityConfig
from ..traces.device_trace import DAY, DiurnalConfig
from ..traces.workloads import WorkloadConfig

#: Named RNG streams of one experiment, each a fixed ``spawn_key`` child of
#: the experiment's root :class:`numpy.random.SeedSequence`.  Deriving every
#: nested seed this way (instead of ``seed + k`` offsets) guarantees that two
#: configs with different root seeds can never end up sharing a stream — the
#: property the sweep runner relies on when fanning out (scenario × seed)
#: cells.
SEED_STREAMS: Dict[str, int] = {
    "devices": 0,
    "availability": 1,
    "workload": 2,
    "simulation": 3,
    "policy": 4,
    "scenario": 5,
    # Federated co-simulation: seeds the synthetic dataset and the
    # per-(client, round) training streams of :mod:`repro.cosim`.  All
    # policies run against one experiment config share this stream, so
    # cross-policy time-to-accuracy differences are attributable to the
    # scheduler's participant sets alone.
    "cosim": 6,
}


@dataclass
class ExperimentConfig:
    """Everything needed to build one simulated environment + workload."""

    name: str = "default"
    seed: int = 7
    #: Device population size.
    num_devices: int = 5000
    #: Number of CL jobs in the workload.
    num_jobs: int = 50
    #: Simulation horizon (seconds).
    horizon: float = 2 * DAY
    #: Workload generation knobs (scenario etc. are overridden per table).
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Device availability model.
    availability: DiurnalConfig = field(default_factory=DiurnalConfig)
    #: Device capacity model.
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    #: Simulation engine knobs, the engine (``vectorized_dispatch``) and
    #: checkpointing among them; ``horizon`` and ``seed`` are derived from
    #: this config's own fields.
    simulation: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        if self.num_devices <= 0 or self.num_jobs <= 0:
            raise ValueError("num_devices and num_jobs must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        # Keep nested configs consistent with the top-level knobs.  The
        # simulation seed is re-derived from the root seed here, so every
        # ``replace``-based copy (``with_seed``, ``with_scenario``, ...)
        # automatically refreshes it.
        self.workload = replace(self.workload, num_jobs=self.num_jobs)
        self.availability = replace(self.availability, horizon=self.horizon)
        self.simulation = replace(
            self.simulation,
            horizon=self.horizon,
            seed=self.seed_for("simulation"),
        )

    # ------------------------------------------------------------------ #
    # Seed derivation
    # ------------------------------------------------------------------ #
    def seed_sequence(self, stream: str) -> np.random.SeedSequence:
        """The :class:`~numpy.random.SeedSequence` of one named RNG stream.

        All component seeds of an experiment (device sampling, availability
        trace, workload, simulation engine, policy) are children of the one
        root seed, keyed by :data:`SEED_STREAMS`.  Two experiments with
        different root seeds therefore use fully independent streams for
        every component — unlike the previous ``seed + k`` offsets, where
        e.g. seed 7's availability stream equalled seed 8's device stream.
        """
        if stream not in SEED_STREAMS:
            raise ValueError(
                f"unknown seed stream {stream!r}; expected one of "
                f"{tuple(SEED_STREAMS)}"
            )
        return np.random.SeedSequence(
            entropy=self.seed, spawn_key=(SEED_STREAMS[stream],)
        )

    def seed_for(self, stream: str) -> int:
        """Integer seed for one named RNG stream (see :meth:`seed_sequence`).

        128 bits of the stream's state are used: collapsing to a single
        uint32 would re-introduce birthday collisions between the streams of
        a large sweep (~10k cells x 6 streams has non-negligible odds of two
        colliding in a 32-bit space).
        """
        state = self.seed_sequence(stream).generate_state(2, np.uint64)
        return (int(state[0]) << 64) | int(state[1])

    def with_scenario(self, scenario: str, category_bias: Optional[str] = None) -> "ExperimentConfig":
        """Copy of this config with a different workload scenario."""
        workload = replace(
            self.workload, scenario=scenario, category_bias=category_bias
        )
        return replace(self, workload=workload)

    def with_jobs(self, num_jobs: int) -> "ExperimentConfig":
        return replace(self, num_jobs=num_jobs)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


def _scaled_workload(
    max_rounds: int,
    max_demand: int,
    rounds_scale: float,
    demand_scale: float,
    mean_interarrival: float,
    deadline_min: float,
    deadline_max: float,
) -> WorkloadConfig:
    """Workload knobs used by the presets.

    The paper's 5-15 minute round deadlines are calibrated to a planetary
    check-in rate (thousands of eligible devices per minute).  The presets
    scale device supply down by roughly two orders of magnitude, so the
    deadlines are scaled up proportionally to keep the deadline-to-supply
    ratio — and therefore the abort behaviour under contention — comparable.
    """
    return WorkloadConfig(
        rounds_scale=rounds_scale,
        demand_scale=demand_scale,
        max_rounds=max_rounds,
        max_demand=max_demand,
        min_rounds=2,
        min_demand=8,
        base_task_duration=60.0,
        mean_interarrival=mean_interarrival,
        deadline_min=deadline_min,
        deadline_max=deadline_max,
    )


def quick_config(seed: int = 7) -> ExperimentConfig:
    """Small preset for tests and benchmarks (runs in a few seconds)."""
    return ExperimentConfig(
        name="quick",
        seed=seed,
        num_devices=800,
        num_jobs=16,
        horizon=1 * DAY,
        workload=_scaled_workload(
            max_rounds=4,
            max_demand=30,
            rounds_scale=0.004,
            demand_scale=0.1,
            mean_interarrival=600.0,
            deadline_min=1200.0,
            deadline_max=3600.0,
        ),
        availability=DiurnalConfig(horizon=1 * DAY),
        simulation=SimulationConfig(horizon=1 * DAY, latency=LatencyConfig()),
    )


def default_config(seed: int = 7) -> ExperimentConfig:
    """The preset behind the reproduced tables (tens of seconds per policy)."""
    return ExperimentConfig(
        name="default",
        seed=seed,
        num_devices=4000,
        num_jobs=50,
        horizon=2 * DAY,
        workload=_scaled_workload(
            max_rounds=8,
            max_demand=60,
            rounds_scale=0.01,
            demand_scale=0.15,
            mean_interarrival=1800.0,
            deadline_min=1800.0,
            deadline_max=5400.0,
        ),
        availability=DiurnalConfig(horizon=2 * DAY),
        simulation=SimulationConfig(horizon=2 * DAY, latency=LatencyConfig()),
    )


def large_config(seed: int = 7) -> ExperimentConfig:
    """A larger preset for trend checks (minutes per policy)."""
    return ExperimentConfig(
        name="large",
        seed=seed,
        num_devices=16000,
        num_jobs=100,
        horizon=4 * DAY,
        workload=_scaled_workload(
            max_rounds=12,
            max_demand=150,
            rounds_scale=0.02,
            demand_scale=0.3,
            mean_interarrival=1800.0,
            deadline_min=1800.0,
            deadline_max=5400.0,
        ),
        availability=DiurnalConfig(horizon=4 * DAY),
        simulation=SimulationConfig(horizon=4 * DAY, latency=LatencyConfig()),
    )


def get_config(name: str = "default", seed: int = 7) -> ExperimentConfig:
    """Look up a preset by name (``quick``, ``default`` or ``large``)."""
    builders = {
        "quick": quick_config,
        "default": default_config,
        "large": large_config,
    }
    if name not in builders:
        raise ValueError(f"unknown preset {name!r}; expected one of {tuple(builders)}")
    return builders[name](seed=seed)


__all__ = [
    "ExperimentConfig",
    "SEED_STREAMS",
    "default_config",
    "get_config",
    "large_config",
    "quick_config",
]
