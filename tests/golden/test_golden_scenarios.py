"""Golden regression fixture for the flash-crowd scenario.

Extends the golden harness of ``test_golden_regression.py`` to the scenario
subsystem: a small, fully-seeded flash-crowd environment is materialised
through the registry (so the transform pipeline itself is under test), run
under the Venn scheduler, and both the *shape* of the workload (the burst's
arrival times) and the per-job simulation outcomes are compared against a
checked-in JSON fixture.

Any change to scenario application order, transform RNG consumption, seed
derivation or engine decisions shows up here as a fixture diff.  Regenerate
intentionally with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.core.baselines import make_policy
from repro.experiments.config import quick_config
from repro.scenarios import get_scenario
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyConfig

from .test_golden_regression import FIXTURE_DIR, assert_matches

DAY = 24 * 3600.0

#: Fixed latency parameters (as in the other golden scenarios) so outcomes
#: only move when decisions move.
GOLDEN_LATENCY = LatencyConfig(compute_sigma=0.25, comm_min=5.0, comm_max=15.0)


def flash_crowd_environment():
    base = quick_config(seed=101)
    base = replace(
        base,
        num_devices=150,
        num_jobs=6,
        horizon=0.5 * DAY,
        workload=replace(base.workload, trace_size=80),
        # The fixture is the single-queue reference's output.
        simulation=replace(
            base.simulation, latency=GOLDEN_LATENCY, vectorized_dispatch=False
        ),
    )
    return get_scenario("flash_crowd").build_environment(base)


def flash_crowd_snapshot() -> dict:
    env = flash_crowd_environment()
    policy = make_policy("venn", seed=env.config.seed_for("policy"))
    sim = Simulator(
        devices=env.devices,
        availability=env.availability,
        workload=env.workload,
        policy=policy,
        config=env.config.simulation,
    )
    metrics = sim.run()
    jobs = {}
    for job_id, jm in sorted(metrics.jobs.items()):
        jobs[str(job_id)] = {
            "jct": jm.jct,
            "scheduling_delays": list(jm.scheduling_delays),
            "rounds_completed": jm.rounds_completed,
            "aborted_rounds": jm.aborted_rounds,
            "completed": jm.completed,
        }
    return {
        "arrivals": {
            str(j.job_id): j.arrival_time for j in env.workload.jobs
        },
        "jobs": jobs,
    }


def test_flash_crowd_matches_frozen_fixture():
    snapshot = flash_crowd_snapshot()
    path = os.path.join(FIXTURE_DIR, "golden_flash_crowd.json")
    if os.environ.get("REGEN_GOLDEN"):
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        pytest.skip(f"regenerated {path}")
    with open(path) as fh:
        expected = json.load(fh)
    assert_matches(snapshot, expected)


def test_flash_crowd_burst_is_present_in_fixture_environment():
    """Guards the fixture's meaning: most arrivals sit inside the burst
    window, so a silent change that drops the transform cannot pass."""
    env = flash_crowd_environment()
    start = 0.2 * env.config.horizon
    in_burst = [
        j
        for j in env.workload.jobs
        if start <= j.arrival_time <= start + 900.0
    ]
    assert len(in_burst) >= len(env.workload.jobs) // 2
