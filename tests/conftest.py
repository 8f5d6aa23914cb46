"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.requirements import (
    COMPUTE_RICH,
    DEFAULT_CATEGORIES,
    GENERAL,
    HIGH_PERFORMANCE,
    MEMORY_RICH,
    compute_signatures,
)
from repro.core.types import DeviceFleet, DeviceProfile, JobSpec
from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_device(
    device_id: int = 0,
    cpu: float = 0.5,
    mem: float = 0.5,
    speed: float = 1.0,
    domains=(),
    reliability: float = 1.0,
) -> DeviceProfile:
    """Convenience device builder used across tests."""
    return DeviceProfile(
        device_id=device_id,
        cpu_score=cpu,
        memory_score=mem,
        speed_factor=speed,
        data_domains=frozenset(domains),
        reliability=reliability,
    )


def bind_devices(policy, devices, requirements=DEFAULT_CATEGORIES) -> list:
    """Bind ``devices`` (profiles or a fleet) and their signatures over
    ``requirements`` to ``policy``, as an engine does; returns their ids."""
    fleet = DeviceFleet.of(devices)
    policy.bind_fleet(fleet, *compute_signatures(fleet, requirements))
    return fleet.device_id.tolist()


def make_job(
    job_id: int = 0,
    requirement=GENERAL,
    demand: int = 10,
    rounds: int = 2,
    arrival: float = 0.0,
    deadline: float = 1200.0,
    base_task_duration: float = 30.0,
) -> JobSpec:
    """Convenience job builder used across tests."""
    return JobSpec(
        job_id=job_id,
        requirement=requirement,
        demand_per_round=demand,
        num_rounds=rounds,
        arrival_time=arrival,
        round_deadline=deadline,
        base_task_duration=base_task_duration,
    )


@pytest.fixture
def device_factory():
    return make_device


@pytest.fixture
def job_factory():
    return make_job


@pytest.fixture
def categories():
    return [GENERAL, COMPUTE_RICH, MEMORY_RICH, HIGH_PERFORMANCE]


@pytest.fixture
def small_device_population():
    """A small, deterministic device population with capacity diversity."""
    sampler = CapacitySampler(seed=5)
    return sampler.sample_devices(200)


@pytest.fixture
def small_availability_trace():
    """A one-day availability trace for 200 devices."""
    model = DiurnalAvailabilityModel(DiurnalConfig(horizon=24 * 3600.0), seed=6)
    return model.generate(200)
