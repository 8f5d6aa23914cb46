"""Experiment drivers reproducing every table and figure of the evaluation."""

from .ablation import (
    estimate_solo_jct,
    figure12_num_jobs,
    figure13_num_tiers,
    figure14_fairness_knob,
)
from .accuracy import (
    figure4_contention_accuracy,
    figure9_accuracy_over_time,
    final_accuracy_by_policy,
)
from .breakdown import (
    FIGURE11_POLICIES,
    figure11_component_breakdown,
    figure5_jct_breakdown,
)
from .config import (
    ExperimentConfig,
    default_config,
    get_config,
    large_config,
    quick_config,
)
from .endtoend import (
    DEFAULT_POLICIES,
    averaged_speedups,
    run_policies,
    run_policy,
    run_scenario,
    table1_average_jct,
    table2_demand_percentiles,
    table3_categories,
    table4_biased_workloads,
)
from .environment import (
    Environment,
    build_availability,
    build_devices,
    build_environment,
    build_workload,
)
from .figures import (
    ToyExampleResult,
    build_loaded_scheduler,
    figure10_overhead,
    figure2a_availability_curve,
    figure2b_capacity_heterogeneity,
    figure3_toy_example,
    figure8a_category_shares,
    figure8b_job_demand_stats,
)
from .runner import run_all

__all__ = [
    "DEFAULT_POLICIES",
    "Environment",
    "averaged_speedups",
    "ExperimentConfig",
    "FIGURE11_POLICIES",
    "ToyExampleResult",
    "build_availability",
    "build_devices",
    "build_environment",
    "build_loaded_scheduler",
    "build_workload",
    "default_config",
    "estimate_solo_jct",
    "figure10_overhead",
    "figure11_component_breakdown",
    "figure12_num_jobs",
    "figure13_num_tiers",
    "figure14_fairness_knob",
    "figure2a_availability_curve",
    "figure2b_capacity_heterogeneity",
    "figure3_toy_example",
    "figure4_contention_accuracy",
    "figure5_jct_breakdown",
    "figure8a_category_shares",
    "figure8b_job_demand_stats",
    "figure9_accuracy_over_time",
    "final_accuracy_by_policy",
    "get_config",
    "large_config",
    "quick_config",
    "run_all",
    "run_policies",
    "run_policy",
    "run_scenario",
    "table1_average_jct",
    "table2_demand_percentiles",
    "table3_categories",
    "table4_biased_workloads",
]
