"""Event-driven collaborative-learning simulator substrate."""

from .device import DeviceRuntime, DeviceStatus, SECONDS_PER_DAY
from .dispatch import PendingRequestPool
from .engine import SimulationConfig, Simulator, run_simulation
from .events import Event, EventQueue, EventType
from .job import JobRuntime, RoundRecord
from .latency import LatencyConfig, ResponseLatencyModel
from .shard import DeviceShard, build_shard
from .metrics import (
    JobMetrics,
    SimulationMetrics,
    collect_job_metrics,
    per_job_speedups,
    speedup_over,
)

__all__ = [
    "DeviceRuntime",
    "DeviceShard",
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
    "build_shard",
    "collect_job_metrics",
    "per_job_speedups",
    "run_simulation",
    "speedup_over",
]
