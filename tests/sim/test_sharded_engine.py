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
from repro.sim.shard import compute_signatures
from repro.sim.vector import VectorDeviceState
from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig
from tests.conftest import make_device, make_job
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


class TestShardIdentity:
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

    def test_single_shard_forced_path_matches_legacy(self):
        horizon = 50_000.0
        devices, trace, jobs = build_environment(3, 80, 6, horizon)
        legacy = run_on(devices, trace, jobs, "venn", horizon, fleet=False)
        forced = run_on(devices, trace, jobs, "venn", horizon, fleet=True)
        assert fingerprint(forced) == fingerprint(legacy)


class TestShardedEngineMechanics:
    def _env(self):
        horizon = 30_000.0
        devices, trace, jobs = build_environment(5, 40, 4, horizon)
        return devices, trace, jobs, horizon

    def test_plan_version_advances_and_snapshot_exposes_it(self):
        devices, trace, jobs, horizon = self._env()
        policy = VennScheduler(seed=9)
        sim = Simulator(
            devices, trace, jobs, policy,
            SimulationConfig(horizon=horizon, seed=17, vectorized_dispatch=True),
        )
        sim.run()
        assert policy.plan_version > 0
        snapshot = policy.plan_snapshot()
        assert snapshot["version"] == policy.plan_version
        assert isinstance(snapshot["group_order"], list)

    def test_max_events_guard_fires_sharded(self):
        devices, trace, jobs, horizon = self._env()
        config = SimulationConfig(
            horizon=horizon, seed=17, vectorized_dispatch=True, max_events=50
        )
        sim = Simulator(devices, trace, jobs, make_policy("venn", seed=9),
                        config)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run()


class TestSignatureProvider:
    def test_provider_signatures_equal_direct_ones(self):
        """The restriction of an engine-precomputed full signature must be
        bit-identical to the policy's own computation — including after
        requirement-set changes (cache wipes)."""
        rng = np.random.default_rng(2)
        devices = [
            make_device(
                device_id=i, cpu=float(rng.uniform(0, 1)),
                mem=float(rng.uniform(0, 1)),
            )
            for i in range(50)
        ]
        requirements = [GENERAL, COMPUTE_RICH, HIGH_PERFORMANCE]
        provider = VectorDeviceState(
            devices, *compute_signatures(devices, requirements)
        ).signature_provider()

        with_provider = VennScheduler(seed=1)
        with_provider.bind_signature_provider(provider, requirements)
        without = VennScheduler(seed=1)

        jobs = [
            make_job(job_id=1, requirement=COMPUTE_RICH, demand=3),
            make_job(job_id=2, requirement=GENERAL, demand=3),
        ]
        for policy in (with_provider, without):
            for job in jobs:
                policy.on_job_arrival(job, 0.0)
        for device in devices:
            assert with_provider._signature_for(device) == without._signature_for(
                device
            )
        assert with_provider._provider_ok
        # Requirement-set change: caches reset, restrictions recomputed.
        job3 = make_job(job_id=3, requirement=HIGH_PERFORMANCE, demand=2)
        for policy in (with_provider, without):
            policy.on_job_finished(1, 10.0)
            policy.on_job_arrival(job3, 10.0)
        for device in devices:
            assert with_provider._signature_for(device) == without._signature_for(
                device
            )

    def test_ambiguous_requirement_names_disable_provider(self):
        other_general = type(GENERAL)("general", min_cpu=0.9)
        policy = VennScheduler(seed=1)
        policy.bind_signature_provider(
            (lambda did: frozenset()), [GENERAL, other_general]
        )
        policy.on_job_arrival(make_job(job_id=1, requirement=GENERAL), 0.0)
        policy._ensure_atom_space()
        assert not policy._provider_ok

    def test_mismatched_requirement_object_falls_back(self):
        stricter = type(GENERAL)("general", min_cpu=0.7)
        policy = VennScheduler(seed=1)
        policy.bind_signature_provider((lambda did: frozenset()), [stricter])
        policy.on_job_arrival(make_job(job_id=1, requirement=GENERAL), 0.0)
        policy._ensure_atom_space()
        assert not policy._provider_ok
        # Falls back to exact local computation.
        device = make_device(device_id=1, cpu=0.1, mem=0.1)
        assert policy._signature_for(device) == frozenset({"general"})

    @pytest.mark.parametrize(
        "ids, lookup",
        [
            pytest.param(list(range(300)), "_signature_at_offset",
                         id="contiguous"),
            pytest.param(
                np.random.default_rng(4).permutation(
                    [11 + 17 * k for k in range(300)]
                ).tolist(),
                "_signature_by_search",
                id="sparse-shuffled",
            ),
        ],
    )
    def test_provider_answers_signature_of_for_every_device(self, ids, lookup):
        """The by-slot provider is keyed by device id: on ids ``0..n-1``
        by offset, on sparse ids given in no order by search — each must
        answer exactly :func:`signature_of`, and survive a pickle."""
        sampled = CapacitySampler(seed=8).sample_devices(len(ids))
        devices = [replace(d, device_id=i) for d, i in zip(sampled, ids)]
        requirements = list(REQUIREMENTS)
        provider = VectorDeviceState(
            devices, *compute_signatures(devices, requirements)
        ).signature_provider()
        assert provider.__func__.__name__ == lookup
        restored = pickle.loads(pickle.dumps(provider))
        for device in devices:
            expected = signature_of(device, requirements)
            assert provider(device.device_id) == expected
            assert restored(device.device_id) == expected

    @pytest.mark.parametrize("sparse", [False, True], ids=["contiguous", "sparse"])
    def test_mid_run_snapshot_carries_the_provider(self, sparse):
        """A fleet checkpoint pickles the policy's provider with the state
        it reads: the resumed policy asks the resumed arrays, and the run
        ends where its uninterrupted twin did."""
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
        assert resumed.policy._sig_provider.__self__ is resumed._vec
        metrics = resumed.run()
        assert metrics_digest(metrics) == metrics_digest(twin_metrics)
        assert resumed.events_processed == twin.events_processed
        assert resumed.policy.decisions == twin.policy.decisions
