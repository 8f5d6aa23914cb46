"""End-to-end bit-identity of the coordinator/stream (fleet) engine.

The hard contract of the fleet engine: it makes exactly the decisions of
the single-queue engine and reports exactly its metrics.  These tests
enforce it the same way PR 3 enforced incremental-vs-full plan identity —
twin runs over hypothesis-generated environments plus fixed structural
checks.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import make_policy
from repro.core.requirements import (
    COMPUTE_RICH,
    GENERAL,
    HIGH_PERFORMANCE,
    MEMORY_RICH,
    signature_of,
)
from repro.core.scheduler import VennScheduler
from repro.resilience import (
    LatestSnapshotStore,
    RecordingPolicy,
    SimulatedCrash,
    metrics_digest,
)
from repro.sim.engine import SimulationConfig, Simulator, run_simulation
from repro.sim.latency import LatencyConfig
from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig
from tests.conftest import bind_devices, make_device, make_job
from tests.sim.test_sparse_device_ids import sparse_cell

REQUIREMENTS = (GENERAL, COMPUTE_RICH, MEMORY_RICH, HIGH_PERFORMANCE)


def plan_counters(metrics):
    """Plan-maintenance snapshot minus wall-clock fields (those measure the
    host, not the decisions)."""
    if metrics.plan_maintenance is None:
        return None
    return {
        k: v
        for k, v in metrics.plan_maintenance.items()
        if not k.endswith("_time_s")
    }


def fingerprint(metrics):
    """Bit-level summary of everything a run reports."""
    return (
        [
            (
                job_id,
                jm.jct,
                tuple(jm.scheduling_delays),
                tuple(jm.response_times),
                jm.rounds_completed,
                jm.aborted_rounds,
                jm.completed,
            )
            for job_id, jm in sorted(metrics.jobs.items())
        ],
        metrics.total_checkins,
        metrics.total_responses,
        metrics.total_failures,
        metrics.total_aborts,
        plan_counters(metrics),
    )


def build_environment(env_seed: int, num_devices: int, num_jobs: int,
                      horizon: float):
    devices = CapacitySampler(seed=env_seed).sample_devices(num_devices)
    trace = DiurnalAvailabilityModel(
        DiurnalConfig(
            horizon=horizon, peak_availability=0.5, trough_availability=0.3,
            median_session=3 * 3600.0,
        ),
        seed=env_seed + 1,
    ).generate(num_devices)
    rng = np.random.default_rng(env_seed + 2)
    jobs = [
        make_job(
            job_id=j + 1,
            requirement=REQUIREMENTS[int(rng.integers(len(REQUIREMENTS)))],
            demand=int(rng.integers(2, 14)),
            rounds=int(rng.integers(1, 4)),
            arrival=float(rng.uniform(0, horizon / 4)),
            deadline=float(rng.uniform(2_000.0, 8_000.0)),
            base_task_duration=60.0,
        )
        for j in range(num_jobs)
    ]
    return devices, trace, jobs


def run_on(devices, trace, jobs, policy_name, horizon, *, fleet,
           enforce_daily=True):
    config = SimulationConfig(
        horizon=horizon,
        seed=17,
        latency=LatencyConfig(compute_sigma=0.3),
        vectorized_dispatch=fleet,
        enforce_daily_limit=enforce_daily,
    )
    policy = make_policy(policy_name, seed=9)
    return run_simulation(devices, trace, jobs, policy, config)


class TestFleetIdentity:
    @given(
        env_seed=st.integers(0, 10_000),
        policy_name=st.sampled_from(["venn", "random", "srsf"]),
        enforce_daily=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_twin_runs_bit_identical(self, env_seed, policy_name, enforce_daily):
        """Single-queue engine vs fleet engine: same decisions, same
        metrics, for hypothesis-chosen environments."""
        horizon = 40_000.0
        devices, trace, jobs = build_environment(env_seed, 60, 5, horizon)
        legacy = run_on(
            devices, trace, jobs, policy_name, horizon, fleet=False,
            enforce_daily=enforce_daily,
        )
        fleet = run_on(
            devices, trace, jobs, policy_name, horizon, fleet=True,
            enforce_daily=enforce_daily,
        )
        assert fingerprint(fleet) == fingerprint(legacy)

    def test_fixed_cell_matches_legacy(self):
        horizon = 50_000.0
        devices, trace, jobs = build_environment(3, 80, 6, horizon)
        legacy = run_on(devices, trace, jobs, "venn", horizon, fleet=False)
        forced = run_on(devices, trace, jobs, "venn", horizon, fleet=True)
        assert fingerprint(forced) == fingerprint(legacy)


class TestFleetEngineMechanics:
    def _env(self):
        horizon = 30_000.0
        devices, trace, jobs = build_environment(5, 40, 4, horizon)
        return devices, trace, jobs, horizon

    def test_plan_version_advances(self):
        devices, trace, jobs, horizon = self._env()
        policy = VennScheduler(seed=9)
        sim = Simulator(
            devices, trace, jobs, policy,
            SimulationConfig(horizon=horizon, seed=17, vectorized_dispatch=True),
        )
        sim.run()
        assert policy.plan_version > 0
        assert isinstance(policy.plan.group_order, list)

    def test_max_events_guard_fires_sharded(self):
        devices, trace, jobs, horizon = self._env()
        config = SimulationConfig(
            horizon=horizon, seed=17, vectorized_dispatch=True, max_events=50
        )
        sim = Simulator(devices, trace, jobs, make_policy("venn", seed=9),
                        config)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run()


class TestFleetBinding:
    def test_bound_signatures_restrict_to_the_live_predicate_walk(self):
        """Venn's signature of a device — its bound signature over the
        workload's requirements, restricted to the live ones — is exactly
        the predicate walk over the live requirements, also after
        requirement-set changes reset the memo."""
        rng = np.random.default_rng(2)
        devices = [
            make_device(
                device_id=i, cpu=float(rng.uniform(0, 1)),
                mem=float(rng.uniform(0, 1)),
            )
            for i in range(50)
        ]
        policy = VennScheduler(seed=1)
        bind_devices(policy, devices, [GENERAL, COMPUTE_RICH, HIGH_PERFORMANCE])
        for job in (
            make_job(job_id=1, requirement=COMPUTE_RICH, demand=3),
            make_job(job_id=2, requirement=GENERAL, demand=3),
        ):
            policy.on_job_arrival(job, 0.0)
        for device in devices:
            assert policy._signature_for(device.device_id) == signature_of(
                device, [COMPUTE_RICH, GENERAL]
            )
        policy.on_job_finished(1, 10.0)
        policy.on_job_arrival(
            make_job(job_id=3, requirement=HIGH_PERFORMANCE, demand=2), 10.0
        )
        for device in devices:
            assert policy._signature_for(device.device_id) == signature_of(
                device, [GENERAL, HIGH_PERFORMANCE]
            )

    @pytest.mark.parametrize(
        "ids, contiguous",
        [
            pytest.param(list(range(300)), True, id="contiguous"),
            pytest.param(
                np.random.default_rng(4).permutation(
                    [11 + 17 * k for k in range(300)]
                ).tolist(),
                False,
                id="sparse-shuffled",
            ),
        ],
    )
    def test_bound_table_answers_signature_of_for_every_device(
        self, ids, contiguous
    ):
        """A policy's bound table is read by device id: on ids ``0..n-1``
        by offset, on sparse ids given in no order by search — each must
        answer exactly :func:`signature_of`, and survive a pickle."""
        sampled = CapacitySampler(seed=8).sample_devices(len(ids))
        devices = [replace(d, device_id=i) for d, i in zip(sampled, ids)]
        policy = make_policy("fifo")
        bind_devices(policy, devices, REQUIREMENTS)
        assert (policy.fleet._id0 is not None) == contiguous
        restored = pickle.loads(pickle.dumps(policy))
        for device in devices:
            expected = signature_of(device, REQUIREMENTS)
            assert policy.device_signature(device.device_id) == expected
            assert restored.device_signature(device.device_id) == expected

    @pytest.mark.parametrize("sparse", [False, True], ids=["contiguous", "sparse"])
    def test_mid_run_snapshot_carries_the_fleet_binding(self, sparse):
        """A fleet checkpoint pickles the policy's binding with the engine's
        arrays, once: the resumed policy's fleet is the resumed engine's,
        and the run ends where its uninterrupted twin did."""
        if sparse:
            devices, trace, jobs = sparse_cell()
        else:
            devices, trace, jobs = build_environment(3, 300, 6, 30_000.0)
        config = dict(horizon=30_000.0, seed=9, vectorized_dispatch=True)

        def simulator(sink=None, **extra):
            return Simulator(
                devices, trace, jobs, RecordingPolicy(VennScheduler(seed=3)),
                SimulationConfig(**config, **extra), checkpoint_sink=sink,
            )

        twin = simulator()
        twin_metrics = twin.run()
        store = LatestSnapshotStore()
        crashed = simulator(
            store, checkpoint_interval=50,
            crash_at_event=twin.events_processed // 2,
        )
        with pytest.raises(SimulatedCrash):
            crashed.run()
        assert store.latest.events_processed > 50  # mid-run, not pre-run
        resumed = Simulator.resume(store.latest, crash_at_event=None)
        assert resumed.policy.fleet is resumed._vec.profiles
        assert resumed.policy.sig_ids is resumed._vec.sig_id
        assert resumed.policy.sig_table is resumed._vec.sig_table
        metrics = resumed.run()
        assert metrics_digest(metrics) == metrics_digest(twin_metrics)
        assert resumed.events_processed == twin.events_processed
        assert resumed.policy.decisions == twin.policy.decisions
