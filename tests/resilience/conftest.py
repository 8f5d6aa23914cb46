"""Shared builders for the resilience tests.

Every test here compares a *reference* run against some interrupted /
crashed twin, so the one thing the fixtures must guarantee is that
two ``build_sim()`` calls with the same knobs produce bit-identical
simulators — the same property a process restart relies on when it
re-reads its inputs.  The environment is therefore rebuilt from a fixed
seed on every call (devices, sessions and jobs are pure functions of it).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core.scheduler import VennScheduler
from repro.resilience import (
    LatestSnapshotStore,
    RecordingPolicy,
    SimulatedCrash,
)
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.latency import LatencyConfig
from repro.sim.metrics import SimulationMetrics
from tests.conftest import make_device, make_job
from tests.sim.test_engine import make_trace

HORIZON = 40_000.0


def small_environment(num_devices: int = 40, horizon: float = HORIZON):
    """The determinism-suite environment: 40 devices, 2 jobs, ~4k events."""
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
        sessions.append((i, start, min(start + 30_000.0, horizon)))
    trace = make_trace(sessions)
    jobs = [
        make_job(1, demand=6, rounds=3, deadline=6_000.0, base_task_duration=60.0),
        make_job(2, demand=4, rounds=2, deadline=6_000.0, base_task_duration=60.0),
    ]
    return devices, trace, jobs


def build_sim(
    *,
    vectorized: bool = False,
    crash_at_event: Optional[int] = None,
    checkpoint_interval: Optional[int] = None,
    checkpoint_sink=None,
    latency: Optional[LatencyConfig] = None,
    horizon: float = HORIZON,
    enforce_daily_limit: bool = False,
    jobs=None,
    seed: int = 99,
) -> Simulator:
    """A fresh, fully deterministic small simulator (RecordingPolicy-wrapped)."""
    devices, trace, default_jobs = small_environment(horizon=horizon)
    config = SimulationConfig(
        horizon=horizon,
        seed=seed,
        latency=latency or LatencyConfig(compute_sigma=0.3),
        enforce_daily_limit=enforce_daily_limit,
        vectorized_dispatch=vectorized,
        crash_at_event=crash_at_event,
        checkpoint_interval=checkpoint_interval,
    )
    return Simulator(
        devices=devices,
        availability=trace,
        workload=jobs if jobs is not None else default_jobs,
        policy=RecordingPolicy(VennScheduler()),
        config=config,
        checkpoint_sink=checkpoint_sink,
    )


def kill_and_resume(
    at_event: int,
    checkpoint_every: int = 200,
    **build_kwargs,
) -> Tuple[Simulator, SimulationMetrics, Simulator, SimulationMetrics]:
    """Reference run + crash-at-``at_event``/resume-from-checkpoint twin.

    Returns ``(reference_sim, reference_metrics, resumed_sim,
    resumed_metrics)`` — callers assert on decisions and metrics.
    """
    reference = build_sim(**build_kwargs)
    ref_metrics = reference.run()
    assert at_event < reference.events_processed, (
        "crash point beyond the run; pick a smaller at_event"
    )
    store = LatestSnapshotStore()
    crashed = build_sim(
        crash_at_event=at_event,
        checkpoint_interval=checkpoint_every,
        checkpoint_sink=store,
        **build_kwargs,
    )
    fallback = crashed.snapshot()  # pre-run snapshot: "no checkpoint yet"
    with pytest.raises(SimulatedCrash):
        crashed.run()
    snapshot = store.latest if store.latest is not None else fallback
    resumed = Simulator.resume(snapshot, crash_at_event=None)
    res_metrics = resumed.run()
    return reference, ref_metrics, resumed, res_metrics
