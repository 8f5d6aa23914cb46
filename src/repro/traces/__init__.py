"""Synthetic trace generators: device capacity, availability and job demand.

These replace the FedScale / AI-Benchmark traces and the production job trace
used in the paper (see DESIGN.md for the substitution rationale).
"""

from .capacity import (
    CapacityConfig,
    CapacitySampler,
    DEFAULT_DATA_DOMAINS,
    MODEL_REQUIREMENTS,
)
from .device_trace import (
    DAY,
    AvailabilitySession,
    DeviceAvailabilityTrace,
    DiurnalAvailabilityModel,
    DiurnalConfig,
)
from .job_trace import JobDemandEntry, JobDemandTrace, JobTraceConfig, JobTraceGenerator
from .workloads import (
    BIAS_SCENARIOS,
    DEMAND_SCENARIOS,
    Workload,
    WorkloadConfig,
    WorkloadGenerator,
)

__all__ = [
    "AvailabilitySession",
    "BIAS_SCENARIOS",
    "CapacityConfig",
    "CapacitySampler",
    "DAY",
    "DEFAULT_DATA_DOMAINS",
    "DEMAND_SCENARIOS",
    "DeviceAvailabilityTrace",
    "DiurnalAvailabilityModel",
    "DiurnalConfig",
    "JobDemandEntry",
    "JobDemandTrace",
    "JobTraceConfig",
    "JobTraceGenerator",
    "MODEL_REQUIREMENTS",
    "Workload",
    "WorkloadConfig",
    "WorkloadGenerator",
]
