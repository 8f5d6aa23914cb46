"""Event-driven collaborative-learning simulator substrate."""

from .device import DeviceRuntime, DeviceStatus, SECONDS_PER_DAY
from .dispatch import PendingRequestPool
from .engine import SimulationConfig, Simulator, run_simulation
from .events import Event, EventQueue, EventType
from .job import JobRuntime, RoundRecord
from .latency import LatencyConfig, ResponseLatencyModel
from .metrics import (
    JobMetrics,
    SimulationMetrics,
    collect_job_metrics,
)

__all__ = [
    "DeviceRuntime",
    "DeviceStatus",
    "Event",
    "EventQueue",
    "EventType",
    "JobMetrics",
    "JobRuntime",
    "LatencyConfig",
    "PendingRequestPool",
    "ResponseLatencyModel",
    "RoundRecord",
    "SECONDS_PER_DAY",
    "SimulationConfig",
    "SimulationMetrics",
    "Simulator",
    "collect_job_metrics",
    "run_simulation",
]
