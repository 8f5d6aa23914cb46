"""Engine-mode identity at scale: every engine configuration on one cell.

The other identity suites (``test_fleet_engine``, ``test_vectorized_engine``,
``test_batched_dispatch``, the goldens) use tens to hundreds of devices, where
the fold kernels, the batched-assign ledger and the decode window see short
runs.  This module is the one input at *scale*: a 5,000-device x 8-job x 6 h
diurnal cell (the ``bench/workloads.py::day_inputs`` recipe at seed 7), built
once, run on the single-queue reference engine and on every other engine
configuration, each of which must reproduce the reference's decision hash,
metrics digest and event count.  The fleet engine is the program's default,
so every single-queue side here says ``vectorized_dispatch=False``, and the
reference fixture checks which engine it ran.
"""

from __future__ import annotations

import pytest

from repro.core.scheduler import VennScheduler
from repro.resilience import (
    RecordingPolicy,
    describe_metrics_divergence,
    format_divergence,
    metrics_digest,
)
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.fleet import FleetSimulator
from repro.traces import (
    CapacitySampler,
    DiurnalAvailabilityModel,
    DiurnalConfig,
    WorkloadConfig,
    WorkloadGenerator,
)

DEVICES = 5_000
JOBS = 8
HORIZON_S = 6 * 3600.0
SEED = 7


class PerDeviceVenn(VennScheduler):
    """Venn without the bulk hook: the fleet engine consults it one device
    at a time, the path every baseline policy takes."""

    assign_batch_bulk = None


#: name -> ``run`` keywords: SimulationConfig overrides, plus the policy
#: class or Venn's plan-maintenance mode where they are not the default.
#: Every cell names its engine; the ``vectorized-`` ones are the fleet's.
CONFIGS = {
    "vectorized-1": dict(vectorized_dispatch=True),
    "vectorized-unbatched-1": dict(
        vectorized_dispatch=True, policy_cls=PerDeviceVenn
    ),
    "full-maintenance": dict(vectorized_dispatch=False, maintenance="full"),
    "checkpointed": dict(vectorized_dispatch=False, checkpoint_interval=2000),
    # The fleet engine under each oracle mode: the bulk hook and the
    # per-device path against from-scratch plan rebuilds, and the fleet
    # loop's checkpoint boundary as pure observation.
    "vectorized-full-maintenance": dict(
        vectorized_dispatch=True, maintenance="full"
    ),
    "vectorized-unbatched-full-maintenance": dict(
        vectorized_dispatch=True, maintenance="full", policy_cls=PerDeviceVenn
    ),
    "vectorized-checkpointed": dict(
        vectorized_dispatch=True, checkpoint_interval=2000
    ),
    "vectorized-unbatched-checkpointed": dict(
        vectorized_dispatch=True, checkpoint_interval=2000,
        policy_cls=PerDeviceVenn,
    ),
}


@pytest.fixture(scope="module")
def cell():
    """Devices, availability trace and job trace, demand sized against the
    device pool so the cell stays contended for the whole horizon."""
    devices = CapacitySampler(seed=SEED).sample_devices(DEVICES)
    availability = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=HORIZON_S), seed=SEED + 1
    ).generate(DEVICES)
    jobs = WorkloadGenerator(
        WorkloadConfig(
            num_jobs=JOBS,
            demand_scale=0.5,
            min_demand=5,
            max_demand=max(10, DEVICES // 10),
            rounds_scale=0.5,
            max_rounds=25,
            mean_interarrival=max(60.0, HORIZON_S / (2.0 * JOBS)),
        ),
        seed=SEED + 2,
    ).generate()
    return devices, availability, jobs


def run(cell, maintenance="incremental", policy_cls=VennScheduler, **overrides):
    """One recorded run; returns ``(policy, metrics, events_processed,
    ran_fleet)``, the last read from the engine ``Simulator`` built."""
    devices, availability, jobs = cell
    policy = RecordingPolicy(policy_cls(seed=SEED, plan_maintenance=maintenance))
    config = SimulationConfig(horizon=HORIZON_S, seed=SEED, **overrides)
    sim = Simulator(devices, availability, jobs, policy, config)
    metrics = sim.run()
    return policy, metrics, sim.events_processed, isinstance(sim, FleetSimulator)


@pytest.fixture(scope="module")
def reference(cell):
    """The oracle: the single-queue engine, named explicitly because the
    default is the fleet engine."""
    policy, metrics, events, ran_fleet = run(cell, vectorized_dispatch=False)
    assert not ran_fleet, "the reference ran the fleet engine"
    return policy, metrics, events


def test_reference_cell_is_contended(reference):
    """The comparison is only worth its time if the cell does real work."""
    policy, metrics, events = reference
    assert len(policy.decisions) > 1_000
    assert metrics.total_responses > 1_000
    assert events > 5_000


@pytest.mark.parametrize("name", CONFIGS)
def test_matches_single_queue_reference(cell, reference, name):
    ref_policy, ref_metrics, ref_events = reference
    policy, metrics, events, ran_fleet = run(cell, **CONFIGS[name])
    assert ran_fleet == name.startswith("vectorized"), "wrong engine ran"
    identical = (
        policy.decision_hash == ref_policy.decision_hash
        and metrics_digest(metrics) == metrics_digest(ref_metrics)
        and events == ref_events
    )
    if not identical:
        print(
            format_divergence(
                ref_policy.decisions, policy.decisions,
                label_a="single-queue", label_b=name,
            )
        )
        print(
            describe_metrics_divergence(
                ref_metrics, metrics, label_a="single-queue", label_b=name
            )
        )
        print(f"events: single-queue={ref_events} {name}={events}")
    assert identical, f"{name} diverged from the single-queue reference"
