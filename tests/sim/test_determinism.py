"""Seed-plumbing tests: one injected generator, bit-identical replays.

The engine owns a single :class:`numpy.random.Generator` seeded by
``SimulationConfig.seed``; the response-latency model draws from it directly
and any policy that was not constructed with its own seed adopts it via
``bind_rng``.  Consequently one seed pins an entire run bit-for-bit — the
property these tests enforce, for Venn (whose ``TierMatcher`` consumes
randomness on the check-in path) and for the random baselines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import RandomMatchingPolicy, UniformRandomPolicy
from repro.core.scheduler import VennScheduler
from repro.sim.engine import SimulationConfig, Simulator, run_simulation
from repro.sim.latency import LatencyConfig
from tests.conftest import make_device, make_job
from tests.sim.test_engine import make_trace


def environment(num_devices=40):
    rng = np.random.default_rng(123)
    devices, sessions = [], []
    for i in range(num_devices):
        devices.append(
            make_device(
                device_id=i,
                cpu=float(rng.uniform(0, 1)),
                mem=float(rng.uniform(0, 1)),
                speed=float(rng.uniform(0.5, 3.0)),
                reliability=0.9,
            )
        )
        start = float(rng.uniform(0, 4_000))
        sessions.append((i, start, start + 30_000.0))
    trace = make_trace(sessions)
    jobs = [
        make_job(1, demand=6, rounds=3, deadline=6_000.0, base_task_duration=60.0),
        make_job(2, demand=4, rounds=2, deadline=6_000.0, base_task_duration=60.0),
    ]
    return devices, trace, jobs


def fingerprint(metrics):
    """A bit-level summary of every per-job outcome."""
    return [
        (
            job_id,
            jm.jct,
            tuple(jm.scheduling_delays),
            tuple(jm.response_times),
            jm.rounds_completed,
            jm.aborted_rounds,
        )
        for job_id, jm in sorted(metrics.jobs.items())
    ]


@pytest.mark.parametrize(
    "policy_factory",
    [VennScheduler, RandomMatchingPolicy, UniformRandomPolicy],
    ids=["venn", "random", "uniform_random"],
)
def test_same_seed_bit_identical_metrics(policy_factory):
    """Same config seed + unseeded policy => identical runs, event for event."""
    devices, trace, jobs = environment()

    def run_once():
        return run_simulation(
            devices, trace, jobs, policy_factory(),
            SimulationConfig(horizon=40_000.0, seed=99,
                             latency=LatencyConfig(compute_sigma=0.3)),
        )

    a, b = run_once(), run_once()
    fa, fb = fingerprint(a), fingerprint(b)
    assert fa == fb
    assert a.total_checkins == b.total_checkins
    assert a.total_responses == b.total_responses
    assert a.total_failures == b.total_failures
    assert a.total_aborts == b.total_aborts


def test_unseeded_policy_adopts_engine_generator():
    """Unseeded policies share the engine generator; the latency model
    draws from per-device streams keyed by the same config seed."""
    devices, trace, jobs = environment(num_devices=5)
    policy = VennScheduler()  # no seed
    sim = Simulator(devices, trace, jobs, policy,
                    SimulationConfig(horizon=10_000.0, seed=1))
    assert policy._rng is sim.rng
    assert sim.latency._entropy == 1


def test_latency_draws_are_draw_order_independent():
    """Per-device latency streams: interleaving draws across devices in any
    order yields the same per-device sequences (the property sharding
    relies on)."""
    from repro.sim.latency import LatencyConfig, ResponseLatencyModel
    from tests.conftest import make_device, make_job

    job = make_job(1, demand=1, rounds=1, deadline=100.0, base_task_duration=60.0)
    d1 = make_device(device_id=3, cpu=0.5, mem=0.5)
    d2 = make_device(device_id=9, cpu=0.5, mem=0.5)

    a = ResponseLatencyModel(LatencyConfig(), per_device_entropy=42)
    seq_a = [a.sample_duration(job, d1), a.sample_duration(job, d2),
             a.sample_duration(job, d1), a.sample_failure(d2)]
    b = ResponseLatencyModel(LatencyConfig(), per_device_entropy=42)
    # Different interleaving: all of d2's draws before d1's.
    b2_first = b.sample_duration(job, d2)
    b2_fail = b.sample_failure(d2)
    b1 = [b.sample_duration(job, d1), b.sample_duration(job, d1)]
    assert seq_a == [b1[0], b2_first, b1[1], b2_fail]


def test_seeded_policy_keeps_its_own_generator():
    devices, trace, jobs = environment(num_devices=5)
    policy = VennScheduler(seed=5)
    own = policy._rng
    sim = Simulator(devices, trace, jobs, policy,
                    SimulationConfig(horizon=10_000.0, seed=1))
    assert policy._rng is own
    assert policy._rng is not sim.rng


def test_tier_matchers_draw_from_injected_generator():
    """TierMatcher instances created during the run use the engine rng."""
    devices, trace, jobs = environment(num_devices=10)
    policy = VennScheduler()
    sim = Simulator(devices, trace, jobs, policy,
                    SimulationConfig(horizon=20_000.0, seed=3))
    sim.run()
    assert policy._matchers  # jobs arrived during the run
    for matcher in policy._matchers.values():
        assert matcher._rng is sim.rng


def test_different_seeds_diverge():
    """Sanity: the seed actually influences outcomes (noisy latency)."""
    devices, trace, jobs = environment()

    def run_with(seed):
        return fingerprint(
            run_simulation(
                devices, trace, jobs, VennScheduler(),
                SimulationConfig(horizon=40_000.0, seed=seed,
                                 latency=LatencyConfig(compute_sigma=0.5)),
            )
        )

    assert run_with(0) != run_with(1)
