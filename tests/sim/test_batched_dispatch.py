"""Engine-level identity tests for the bulk decision path.

The fleet engine routes every dispatch sweep through the policy's
``assign_batch_bulk`` when it offers one; the per-device consult sweep —
what a policy without the hook gets — is the oracle.  These tests assert
the full decision sequence and metrics digest are bit-identical with and
without the hook for the Venn scheduler (ledger protocol) — on a
population whose sweeps reach hundreds of devices and on one whose sweeps
all stay at 64 or fewer — and that every shipped policy reproduces the
single-queue engine's decisions on the same cell, with the daily
participation quota active across a day boundary.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import POLICY_NAMES, make_policy
from repro.core.requirements import COMPUTE_RICH, GENERAL, MEMORY_RICH
from repro.core.types import JobSpec
from repro.resilience.record import RecordingPolicy, metrics_digest
from repro.sim.device import SECONDS_PER_DAY
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.latency import LatencyConfig
from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig

HORIZON = 1.5 * SECONDS_PER_DAY  # crosses a daily-quota boundary


def batch_scenario(num_devices=1500):
    # The default size gives dispatch sweeps of well over a hundred devices
    # (the diurnal trace keeps only a fraction of the population online at
    # once), so bulk consults span several signatures and a demand-zeroing
    # proposal can land mid-cohort.
    devices = CapacitySampler(seed=11).sample_devices(num_devices)
    trace = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=HORIZON), seed=12
    ).generate(num_devices)
    jobs = [
        JobSpec(1, GENERAL, demand_per_round=150, num_rounds=3,
                arrival_time=50.0, round_deadline=6_000.0,
                base_task_duration=90.0),
        JobSpec(2, COMPUTE_RICH, demand_per_round=60, num_rounds=2,
                arrival_time=300.0, round_deadline=6_000.0,
                base_task_duration=90.0),
        JobSpec(3, MEMORY_RICH, demand_per_round=50, num_rounds=3,
                arrival_time=700.0, round_deadline=6_000.0,
                base_task_duration=90.0),
        JobSpec(4, GENERAL, demand_per_round=120, num_rounds=2,
                arrival_time=40_000.0, round_deadline=6_000.0,
                base_task_duration=60.0),
    ]
    return devices, trace, jobs


def run_recorded(policy_name, batched, fleet=True, num_devices=1500,
                 cohorts=None):
    """Decisions and metrics digest of one run; the size of every cohort
    offered to ``assign_batch_bulk`` is appended to ``cohorts`` if given."""
    devices, trace, jobs = batch_scenario(num_devices)
    inner = make_policy(policy_name, seed=5)
    if not batched:
        inner.assign_batch_bulk = None  # hookless: per-device consults
    elif cohorts is not None:
        bulk = inner.assign_batch_bulk

        def spy(cohort, now):
            cohorts.append(len(cohort))
            return bulk(cohort, now)

        inner.assign_batch_bulk = spy
    policy = RecordingPolicy(inner)
    config = SimulationConfig(
        horizon=HORIZON,
        seed=21,
        latency=LatencyConfig(compute_sigma=0.3, comm_min=5.0, comm_max=20.0),
        vectorized_dispatch=fleet,
        enforce_daily_limit=True,
    )
    sim = Simulator(devices, trace, jobs, policy, config)
    metrics = sim.run()
    return list(policy.decisions), metrics_digest(metrics)


class TestBatchedDispatchIdentity:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_batched_matches_unbatched(self, policy_name):
        """The fleet engine, with whatever bulk hook the policy ships, makes
        the single-queue engine's per-device decisions."""
        scalar_decisions, scalar_metrics = run_recorded(
            policy_name, batched=False, fleet=False
        )
        assert scalar_decisions, "scenario made no assignments"
        batched_decisions, batched_metrics = run_recorded(
            policy_name, batched=True
        )
        assert batched_decisions == scalar_decisions
        assert batched_metrics == scalar_metrics

    @pytest.mark.parametrize(
        "num_devices, largest_sweep",
        # 300 devices keep every sweep at or below 64: small cohorts go
        # through the bulk consult too, with no size cutoff in front of it.
        [(1500, None), (300, 64)],
        ids=["large-sweeps", "small-sweeps"],
    )
    def test_batched_identity_on_the_fleet_engine(
        self, num_devices, largest_sweep
    ):
        """Bulk hook on or off, the fleet engine makes the same decisions,
        and with the hook on every sweep reaches it."""
        scalar_decisions, scalar_metrics = run_recorded(
            "venn", batched=False, num_devices=num_devices
        )
        cohorts = []
        batched_decisions, batched_metrics = run_recorded(
            "venn", batched=True, num_devices=num_devices, cohorts=cohorts
        )
        assert cohorts, "no sweep reached assign_batch_bulk"
        if largest_sweep is not None:
            assert max(cohorts) <= largest_sweep
        assert batched_decisions == scalar_decisions
        assert batched_metrics == scalar_metrics

    def test_bulk_hook_is_used_whenever_the_policy_offers_it(self):
        devices, trace, jobs = batch_scenario()
        config = SimulationConfig(horizon=HORIZON, vectorized_dispatch=True)
        venn = make_policy("venn", seed=5)
        sim = Simulator(devices, trace, jobs, venn, config)
        assert sim._policy_bulk_assign == venn.assign_batch_bulk
        fifo = make_policy("fifo")
        assert Simulator(devices, trace, jobs, fifo, config)._policy_bulk_assign is None
