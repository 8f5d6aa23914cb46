"""Building the simulated environment (devices + availability + workload)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Tuple

from ..core.types import DeviceFleet, DeviceProfile
from ..traces.capacity import CapacitySampler
from ..traces.device_trace import DeviceAvailabilityTrace, DiurnalAvailabilityModel
from ..traces.workloads import Workload, WorkloadGenerator
from .config import ExperimentConfig


@dataclass
class Environment:
    """A fully materialised simulation environment."""

    config: ExperimentConfig
    devices: Sequence[DeviceProfile]
    availability: DeviceAvailabilityTrace
    workload: Workload

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_jobs(self) -> int:
        return len(self.workload.jobs)


def build_devices(config: ExperimentConfig) -> DeviceFleet:
    """Sample the device population for an experiment."""
    sampler = CapacitySampler(config.capacity, seed=config.seed_for("devices"))
    return sampler.sample_devices(config.num_devices)


def build_availability(
    config: ExperimentConfig,
    device_ids: Optional[Sequence[int]] = None,
) -> DeviceAvailabilityTrace:
    """Generate the availability trace for the experiment's device ids.

    The availability model draws every device from its own
    :class:`numpy.random.SeedSequence` child keyed by the *global device
    id* (not by generation order), so it can step a block of devices in
    lockstep as numpy columns.  The same independence lets ``device_ids``
    restrict the build to any subset: the produced sessions are
    bit-identical to that subset of the full-population trace.  The
    property test in ``tests/traces`` pins this.
    """
    model = DiurnalAvailabilityModel(
        config.availability, seed=config.seed_for("availability")
    )
    return model.generate(config.num_devices, device_ids=device_ids)


def build_workload(config: ExperimentConfig) -> Workload:
    """Generate the CL job workload for the experiment."""
    generator = WorkloadGenerator(config.workload, seed=config.seed_for("workload"))
    return generator.generate()


def build_environment(config: ExperimentConfig) -> Environment:
    """Build devices, availability and workload from one configuration.

    Each component draws from its own named child stream of the root seed
    (see :data:`~repro.experiments.config.SEED_STREAMS`), so the whole
    environment is reproducible while component streams stay independent
    both of each other and of every other root seed's streams.
    """
    return Environment(
        config=config,
        devices=build_devices(config),
        availability=build_availability(config),
        workload=build_workload(config),
    )


__all__ = [
    "Environment",
    "build_availability",
    "build_devices",
    "build_environment",
    "build_workload",
]
