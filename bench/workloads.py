"""The four benchmark workloads: one table, their input generators, and the
one place an engine is selected.

Everything the program receives is made here from ``--seed``; nothing else
in ``bench/`` draws randomness.  What the seed reaches is chosen so that ten
seeds describe *one* workload instead of ten (see README, "What the seed
changes"):

* day cells: the seed draws the device population, the availability trace,
  the simulator's outcome randomness and the policy's randomness.  The job
  trace is one fixed draw (:data:`JOB_TRACE_SEED`), like the paper's fixed
  job trace: a cell holds 10-100 heavy-tailed jobs, and redrawing them moves
  every metric by 25-100 %, which no bound could hold.
* sweep: the matrix is the paper matrix planned with two replicates per
  scenario (root seed 0).  Four scenarios run their first replicate; the seed
  picks the fifth, which runs its second, and the order in which the cells
  are handed to the two workers.  A fifth of the jobs is redrawn, not all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, ContextManager, List, Tuple

from repro.experiments.sweep import plan_cells
from repro.sim.engine import SimulationConfig
from repro.traces import (
    CapacitySampler,
    DiurnalAvailabilityModel,
    DiurnalConfig,
    WorkloadConfig,
    WorkloadGenerator,
)

HORIZON_S = 24 * 3600.0
POLICY = "venn"
#: ``bench_scalability.build_cell`` seeds the job trace with ``seed + 2``; 9 is
#: that recipe at its default seed 7.
JOB_TRACE_SEED = 9
#: ``--smoke`` divides every device count by this (sweep: ``quick`` preset).
SMOKE_DIVISOR = 20
#: Timed repeats per run are never fewer than this (``--smoke``: one).
MIN_REPEATS = 3

SWEEP_SCENARIOS = ("even", "small", "large", "low", "high")
#: FIFO, the paper's third baseline, is left out: no metric reads it and its
#: five cells would cost the run a fourth repeat.
SWEEP_POLICIES = ("random", "srsf", "venn")
SWEEP_ROOT_SEED = 0
SWEEP_WORKERS = 2

Phase = Callable[[str], ContextManager]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"day"``: one simulated day of ``devices`` x ``jobs`` under Venn on
    #: the fast engine.  ``"sweep"``: the paper matrix on the reference engine.
    kind: str
    devices: int
    jobs: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "contended_50k", "day", 50_000, 30,
            "contended all day (6 of 10 jobs finish): consult, responses, "
            "outcome sampling and plan upkeep all do real work; half-scale "
            "twin of the 100k x 50 cell every past PR quoted",
        ),
        Workload(
            "static_100k", "day", 100_000, 10,
            "static-heavy: jobs finish, so trace generation (over half of "
            "total), check-in/checkout fold and stream build dominate and the "
            "decision path does little; largest working set",
        ),
        Workload(
            "churn_10k", "day", 10_000, 100,
            "core used the other way round, writes beside reads: one in-place "
            "plan update per ~10 assigns, overloaded (1 job in 20 finishes); "
            "a plan-version memo that wins elsewhere and loses here must show",
        ),
        Workload(
            "sweep_paper", "sweep", 4_000, 50,
            "paper Table 1 matrix, 15 short cells on 2 workers: per-cell "
            "environment build and fork/IPC matter, on the reference engine "
            "the day cells bypass, under random and SRSF as well as Venn",
        ),
    )
}


def simulation_config(seed: int, fast: bool) -> SimulationConfig:
    """Engine selection: ``fast`` is the vectorized engine, otherwise the
    program's defaults (the reference engine)."""
    return SimulationConfig(
        horizon=HORIZON_S,
        seed=seed,
        max_events=200_000_000,
        vectorized_dispatch=fast,
    )


def day_inputs(workload: Workload, seed: int, smoke: bool, phase: Phase) -> Tuple:
    """Devices, availability trace and job trace of one day cell: the
    ``bench_scalability.build_cell`` recipe, demand sized against the device
    pool so the cell stays contended instead of draining in the first hours."""
    n = workload.devices // SMOKE_DIVISOR if smoke else workload.devices
    with phase("traces.capacity"):
        devices = CapacitySampler(seed=seed).sample_devices(n)
    with phase("traces.availability"):
        availability = DiurnalAvailabilityModel(
            DiurnalConfig(horizon=HORIZON_S), seed=seed + 1
        ).generate(n)
    with phase("traces.workload"):
        jobs = WorkloadGenerator(
            WorkloadConfig(
                num_jobs=workload.jobs,
                demand_scale=0.5,
                min_demand=5,
                max_demand=max(10, n // 10),
                rounds_scale=0.5,
                max_rounds=25,
                mean_interarrival=max(60.0, HORIZON_S / (2.0 * workload.jobs)),
            ),
            seed=JOB_TRACE_SEED,
        ).generate()
    return devices, availability, jobs


def sweep_cells(seed: int) -> List:
    """The paper matrix: every scenario on its first replicate, except one,
    seed-chosen, on its second; in a seed-chosen submission order."""
    rng = random.Random(seed)
    moved = rng.choice(SWEEP_SCENARIOS)
    planned = plan_cells(
        SWEEP_SCENARIOS, 2, SWEEP_POLICIES, root_seed=SWEEP_ROOT_SEED
    )
    cells = [
        cell
        for cell in planned
        if cell.seed_index == (1 if cell.scenario == moved else 0)
    ]
    rng.shuffle(cells)
    return cells


def sweep_preset(smoke: bool) -> str:
    return "quick" if smoke else "default"
