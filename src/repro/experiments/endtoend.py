"""End-to-end scheduling experiments (Table 1, Table 2, Table 3, Table 4).

The central primitive is :func:`run_policies`: build one environment
(devices + availability + workload), run it once per scheduling policy and
return the per-policy :class:`~repro.sim.metrics.SimulationMetrics`.  All
policies see the *same* environment, so differences are attributable to the
scheduler alone.

On top of that primitive the module reproduces the paper's end-to-end
tables:

* :func:`table1_average_jct` — average-JCT speed-up over random matching for
  FIFO / SRSF / Venn across the five demand scenarios;
* :func:`table2_demand_percentiles` — Venn's speed-up restricted to the jobs
  with the smallest total demands;
* :func:`table3_categories` — Venn's speed-up per eligibility category;
* :func:`table4_biased_workloads` — speed-ups on the four category-biased
  workloads of §5.4.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..analysis.stats import (
    average_jct_speedup,
    jct_speedup_by_category,
    jct_speedup_by_demand_percentile,
)
from ..core.baselines import make_policy
from ..sim.engine import SimulationConfig, Simulator
from ..sim.metrics import SimulationMetrics
from ..traces.workloads import BIAS_SCENARIOS, DEMAND_SCENARIOS
from .config import ExperimentConfig, default_config
from .environment import Environment, build_environment

#: Policies reported in the end-to-end tables, in paper order.
DEFAULT_POLICIES: Sequence[str] = ("random", "fifo", "srsf", "venn")


def run_policy(
    env: Environment,
    policy_name: str,
    policy_kwargs: Optional[dict] = None,
) -> SimulationMetrics:
    """Run one policy against an environment and return its metrics."""
    kwargs = dict(policy_kwargs or {})
    if policy_name.startswith("venn"):
        # The experiment config decides how Venn maintains its plan unless
        # the caller explicitly overrides it.
        kwargs.setdefault("plan_maintenance", env.config.plan_maintenance)
    policy = make_policy(policy_name, seed=env.config.seed_for("policy"), **kwargs)
    sim = Simulator(
        devices=env.devices,
        availability=env.availability,
        workload=env.workload,
        policy=policy,
        config=env.config.simulation,
    )
    return sim.run()


def run_policies(
    env: Environment,
    policies: Sequence[str] = DEFAULT_POLICIES,
    policy_kwargs: Optional[Mapping[str, dict]] = None,
) -> Dict[str, SimulationMetrics]:
    """Run several policies against the same environment."""
    kwargs = dict(policy_kwargs or {})
    return {
        name: run_policy(env, name, kwargs.get(name)) for name in policies
    }


def run_scenario(
    config: ExperimentConfig,
    scenario: str,
    policies: Sequence[str] = DEFAULT_POLICIES,
    policy_kwargs: Optional[Mapping[str, dict]] = None,
) -> Dict[str, SimulationMetrics]:
    """Build the environment for ``scenario`` and run all policies on it."""
    if scenario in DEMAND_SCENARIOS:
        cfg = config.with_scenario(scenario)
    elif scenario in BIAS_SCENARIOS:
        cfg = config.with_scenario("even", category_bias=scenario)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    env = build_environment(cfg)
    return run_policies(env, policies, policy_kwargs)


def averaged_speedups(
    config: ExperimentConfig,
    scenario: str,
    policies: Sequence[str] = DEFAULT_POLICIES,
    num_seeds: int = 1,
    baseline: str = "random",
) -> Dict[str, float]:
    """Average-JCT speed-ups over ``baseline``, averaged across seeds.

    A single trace replay carries noticeable run-to-run noise (a handful of
    large jobs dominate the average JCT), so the tables support averaging the
    speed-up over several independently seeded environments.
    """
    if num_seeds <= 0:
        raise ValueError("num_seeds must be positive")
    sums: Dict[str, float] = {p: 0.0 for p in policies if p != baseline}
    for i in range(num_seeds):
        cfg = config.with_seed(config.seed + 1000 * i)
        results = run_scenario(cfg, scenario, policies)
        speedups = average_jct_speedup(results, baseline=baseline)
        for p in sums:
            sums[p] += speedups[p]
    return {p: total / num_seeds for p, total in sums.items()}


# --------------------------------------------------------------------------- #
# Paper tables
# --------------------------------------------------------------------------- #
def table1_average_jct(
    config: Optional[ExperimentConfig] = None,
    scenarios: Sequence[str] = DEMAND_SCENARIOS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    num_seeds: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Table 1: avg-JCT speed-up over random matching per workload scenario."""
    config = config or default_config()
    out: Dict[str, Dict[str, float]] = {}
    for scenario in scenarios:
        out[scenario] = averaged_speedups(
            config, scenario, policies, num_seeds=num_seeds
        )
    return out


def table2_demand_percentiles(
    config: Optional[ExperimentConfig] = None,
    scenarios: Sequence[str] = DEMAND_SCENARIOS,
    percentiles: Sequence[float] = (25.0, 50.0, 75.0),
    policy: str = "venn",
) -> Dict[str, Dict[float, float]]:
    """Table 2: Venn's speed-up over the smallest-demand jobs per scenario."""
    config = config or default_config()
    out: Dict[str, Dict[float, float]] = {}
    for scenario in scenarios:
        results = run_scenario(config, scenario, ("random", policy))
        out[scenario] = jct_speedup_by_demand_percentile(
            results, policy, baseline="random", percentiles=percentiles
        )
    return out


def table3_categories(
    config: Optional[ExperimentConfig] = None,
    scenarios: Sequence[str] = DEMAND_SCENARIOS,
    policy: str = "venn",
) -> Dict[str, Dict[str, float]]:
    """Table 3: Venn's speed-up per device-eligibility category per scenario."""
    config = config or default_config()
    out: Dict[str, Dict[str, float]] = {}
    for scenario in scenarios:
        results = run_scenario(config, scenario, ("random", policy))
        out[scenario] = jct_speedup_by_category(results, policy, baseline="random")
    return out


def table4_biased_workloads(
    config: Optional[ExperimentConfig] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    num_seeds: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Table 4: speed-ups on the four category-biased workloads of §5.4."""
    config = config or default_config()
    out: Dict[str, Dict[str, float]] = {}
    for bias in BIAS_SCENARIOS:
        out[bias] = averaged_speedups(config, bias, policies, num_seeds=num_seeds)
    return out


__all__ = [
    "DEFAULT_POLICIES",
    "averaged_speedups",
    "run_policies",
    "run_policy",
    "run_scenario",
    "table1_average_jct",
    "table2_demand_percentiles",
    "table3_categories",
    "table4_biased_workloads",
]
