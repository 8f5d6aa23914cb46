"""repro — a full reproduction of Venn (MLSys 2025).

Venn is a collaborative-learning (CL) resource manager that shares a large
pool of ephemeral, heterogeneous edge devices among many concurrent CL jobs
to minimise the average job completion time.  This package implements the
whole system in Python:

* :mod:`repro.core`        — the Venn scheduler (Intersection Resource
  Scheduling, tier-based device matching, fairness), the baselines it is
  compared against and the exact ILP reference;
* :mod:`repro.sim`         — the event-driven CL simulator;
* :mod:`repro.traces`      — synthetic device-availability, device-capacity
  and job-demand traces;
* :mod:`repro.fl`          — a numpy federated-learning substrate (FedAvg);
* :mod:`repro.cosim`       — scheduler-driven federated co-simulation: the
  trainer replays each run's completed rounds and every scenario yields
  time-to-accuracy curves;
* :mod:`repro.analysis`    — metrics, sweep aggregation and report
  formatting;
* :mod:`repro.experiments` — drivers that regenerate every table and figure
  of the paper's evaluation, plus the parallel scenario sweep runner
  (:mod:`repro.experiments.sweep`);
* :mod:`repro.scenarios`   — the declarative scenario registry the sweep
  draws from (paper scenarios plus flash crowds, churn storms, straggler
  tails and multi-tenant tiers).

Quickstart::

    from repro.experiments import quick_config, build_environment, run_policies

    env = build_environment(quick_config())
    results = run_policies(env, ("random", "fifo", "srsf", "venn"))
    for name, metrics in results.items():
        print(name, metrics.average_jct)
"""

# `scenarios` must come after `experiments`: scenario specs build on the
# experiment config machinery.  `cosim` comes last: it couples the
# experiment, fl and sim layers into the federated co-simulation.
from . import analysis, core, experiments, fl, scenarios, sim, traces
from . import cosim
from .core import (
    DeviceProfile,
    EligibilityRequirement,
    JobSpec,
    ResourceRequest,
    SchedulingPolicy,
    VennScheduler,
    make_policy,
)
from .sim import SimulationConfig, SimulationMetrics, Simulator, run_simulation
from .traces import Workload, WorkloadConfig, WorkloadGenerator, scenario_workload

__version__ = "1.0.0"

__all__ = [
    "DeviceProfile",
    "EligibilityRequirement",
    "JobSpec",
    "ResourceRequest",
    "SchedulingPolicy",
    "SimulationConfig",
    "SimulationMetrics",
    "Simulator",
    "VennScheduler",
    "Workload",
    "WorkloadConfig",
    "WorkloadGenerator",
    "__version__",
    "analysis",
    "core",
    "cosim",
    "experiments",
    "fl",
    "make_policy",
    "run_simulation",
    "scenario_workload",
    "scenarios",
    "sim",
    "traces",
]
