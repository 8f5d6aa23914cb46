"""Declarative scenario subsystem: specs, registry and built-in library.

Importing the package registers the built-in scenarios, so

>>> from repro.scenarios import get_scenario
>>> get_scenario("flash_crowd")

works without further setup.  See ``docs/SCENARIOS.md``.
"""

from .library import BEYOND_PAPER_SCENARIOS, NETWORK_SCENARIOS
from .registry import (
    get_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from .spec import (
    AvailabilityTransform,
    ScenarioSpec,
    WorkloadTransform,
    validate_environment,
)
from .transforms import (
    DEFAULT_TIERS,
    assign_priority_tiers,
    chain_availability_transforms,
    chain_workload_transforms,
    compress_arrivals,
    inject_churn_storms,
    regional_outage,
    storm_windows,
)

__all__ = [
    "AvailabilityTransform",
    "BEYOND_PAPER_SCENARIOS",
    "DEFAULT_TIERS",
    "NETWORK_SCENARIOS",
    "ScenarioSpec",
    "WorkloadTransform",
    "assign_priority_tiers",
    "chain_availability_transforms",
    "chain_workload_transforms",
    "compress_arrivals",
    "get_scenario",
    "inject_churn_storms",
    "regional_outage",
    "register_scenario",
    "scenario_names",
    "storm_windows",
    "unregister_scenario",
    "validate_environment",
]
