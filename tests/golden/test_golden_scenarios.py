"""Golden regression fixture for the flash-crowd scenario.

Extends the golden harness of ``test_golden_regression.py`` to the scenario
subsystem: a small, fully-seeded flash-crowd environment is materialised
through the registry (so the transform pipeline itself is under test), run
under the Venn scheduler, and both the *shape* of the workload (the burst's
arrival times) and the per-job simulation outcomes are compared against a
checked-in JSON fixture.

Any change to scenario application order, transform RNG consumption, seed
derivation or engine decisions shows up here as a fixture diff.  A second,
*tiered* cell runs the same crowd on twice the fleet, where the
remaining-service order and tier matching both move decisions, so a policy
that stops learning from its round closes moves a fixture too.  Regenerate
intentionally with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.core.scheduler import VennScheduler
from repro.experiments.config import quick_config
from repro.resilience.record import RecordingPolicy
from repro.scenarios import get_scenario
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyConfig

from .test_golden_regression import FIXTURE_DIR, assert_matches

DAY = 24 * 3600.0

#: Fixed latency parameters (as in the other golden scenarios) so outcomes
#: only move when decisions move.
GOLDEN_LATENCY = LatencyConfig(compute_sigma=0.25, comm_min=5.0, comm_max=15.0)


#: The tiered cell's fleet: the same flash crowd on twice the devices, where
#: both the remaining-service order and tier matching (Algorithm 2) move
#: Venn's decisions (``test_ordering_and_matching_both_move_the_tiered_cell``).
TIERED_DEVICES = 300


def flash_crowd_environment(num_devices: int = 150, vectorized: bool = False):
    base = quick_config(seed=101)
    base = replace(
        base,
        num_devices=num_devices,
        num_jobs=6,
        horizon=0.5 * DAY,
        workload=replace(base.workload, trace_size=80),
        # The fixtures are the single-queue reference's output.
        simulation=replace(
            base.simulation,
            latency=GOLDEN_LATENCY,
            vectorized_dispatch=vectorized,
        ),
    )
    return get_scenario("flash_crowd").build_environment(base)


def flash_crowd_run(num_devices: int = 150, vectorized: bool = False,
                    policy_class=VennScheduler, **policy_kwargs):
    """The cell's environment and its run's metrics and decision hash."""
    env = flash_crowd_environment(num_devices, vectorized)
    policy = RecordingPolicy(
        policy_class(seed=env.config.seed_for("policy"), **policy_kwargs)
    )
    sim = Simulator(
        devices=env.devices,
        availability=env.availability,
        workload=env.workload,
        policy=policy,
        config=env.config.simulation,
    )
    return env, sim.run(), policy.decision_hash


def flash_crowd_snapshot(
    num_devices: int = 150, vectorized: bool = False
) -> dict:
    env, metrics, _decisions = flash_crowd_run(num_devices, vectorized)
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


def check_fixture(snapshot: dict, name: str) -> None:
    path = os.path.join(FIXTURE_DIR, f"golden_{name}.json")
    if os.environ.get("REGEN_GOLDEN"):
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        pytest.skip(f"regenerated {path}")
    with open(path) as fh:
        expected = json.load(fh)
    assert_matches(snapshot, expected)


def test_flash_crowd_matches_frozen_fixture():
    check_fixture(flash_crowd_snapshot(), "flash_crowd")


@pytest.mark.parametrize("vectorized", [False, True], ids=["reference", "fleet"])
def test_tiered_flash_crowd_matches_frozen_fixture(vectorized):
    check_fixture(
        flash_crowd_snapshot(TIERED_DEVICES, vectorized), "flash_crowd_tiered"
    )


class RoundsNeverCounted(VennScheduler):
    """Venn as it ran while the policy was told of a round's close before
    the round was marked completed: ``rounds_completed`` stays 0, so jobs
    are ordered by total, not remaining, service."""

    def on_request_closed(self, request, now):
        super().on_request_closed(request, now)
        if request.job_id in self.rounds_completed:
            self.rounds_completed[request.job_id] = 0


def test_ordering_and_matching_both_move_the_tiered_cell():
    """The tiered fixture would move if either the remaining-service order
    or Algorithm 2 stopped reaching decisions."""
    _env, _metrics, venn = flash_crowd_run(TIERED_DEVICES)
    _env, _metrics, without_matching = flash_crowd_run(
        TIERED_DEVICES, enable_matching=False
    )
    _env, _metrics, total_service = flash_crowd_run(
        TIERED_DEVICES, policy_class=RoundsNeverCounted
    )
    assert venn != without_matching
    assert venn != total_service


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
