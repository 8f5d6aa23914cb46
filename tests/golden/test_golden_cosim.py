"""Golden regression test for the federated co-simulation.

One fully seeded co-sim run — the ``non_iid_contention`` scenario on a
micro quick-preset environment under the Venn scheduler — is frozen as a
JSON fixture: per-job accuracy curves with their simulated completion
times, the per-target time-to-accuracy map, and the run's decision and
accuracy hashes.  The run is replayed on the single-queue engine and on
the fleet engine, and every replay must be **byte-identical** to the
fixture — the co-sim extension of the engine-identity contract PR 4 pinned
for scheduling decisions.

Regenerate intentionally with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden/test_golden_cosim.py -q
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.cosim import CoSimulation, smoke_cosim_config
from repro.experiments.config import quick_config
from repro.scenarios import get_scenario

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURE_PATH = os.path.join(FIXTURE_DIR, "golden_cosim.json")

DAY = 24 * 3600.0
SCENARIO = "non_iid_contention"
POLICY = "venn"
SEED = 11


def cosim_snapshot(vectorized: bool = False) -> dict:
    """Run the pinned co-sim scenario and serialise its observable output."""
    base = replace(
        quick_config(seed=SEED), num_devices=600, num_jobs=8, horizon=DAY
    )
    base = replace(
        base, simulation=replace(base.simulation, vectorized_dispatch=vectorized)
    )
    spec = get_scenario(SCENARIO)
    env = spec.build_environment(base)
    config = smoke_cosim_config().with_overrides(spec.cosim)
    result = CoSimulation(
        env,
        POLICY,
        policy_kwargs=dict(spec.policy_kwargs.get(POLICY, {})),
        config=config,
    ).run()
    return {
        "scenario": SCENARIO,
        "policy": result.policy,
        "total_jobs": result.total_jobs,
        "decision_hash": result.decision_hash,
        "accuracy_hash": result.accuracy_hash,
        "jobs": {
            str(job_id): {
                "final_accuracy": job.final_accuracy,
                "rounds": [
                    [
                        r.round_index,
                        r.completion_time,
                        r.num_participants,
                        r.num_clients,
                        r.accuracy,
                    ]
                    for r in job.rounds
                ],
            }
            for job_id, job in result.jobs.items()
        },
        "time_to_target": {
            str(float(t)): {
                str(job_id): time
                for job_id, time in result.time_to_accuracy(t).items()
            }
            for t in result.targets
        },
    }


class TestGoldenCoSim:
    def test_matches_frozen_fixture(self):
        snapshot = json.loads(json.dumps(cosim_snapshot()))
        if os.environ.get("REGEN_GOLDEN"):
            os.makedirs(FIXTURE_DIR, exist_ok=True)
            with open(FIXTURE_PATH, "w") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
            pytest.skip(f"regenerated {FIXTURE_PATH}")
        with open(FIXTURE_PATH) as fh:
            expected = json.load(fh)
        # Byte-identical contract: accuracy curves and hashes are compared
        # exactly (JSON round-trips IEEE doubles losslessly), not approximately.
        assert snapshot == expected

    def test_run_actually_trains(self):
        """Guard against the fixture silently pinning a degenerate run."""
        with open(FIXTURE_PATH) as fh:
            expected = json.load(fh)
        rounds = sum(len(j["rounds"]) for j in expected["jobs"].values())
        assert rounds >= 3
        assert any(
            j["final_accuracy"] > 0.3 for j in expected["jobs"].values()
        )
        assert any(
            t is not None
            for per_job in expected["time_to_target"].values()
            for t in per_job.values()
        )

    def test_vectorized_replay_is_byte_identical(self):
        """The fleet engine must also land on the frozen fixture:
        decisions, accuracy curves and hashes — accuracy curves included,
        since the trainer only reads the run's round records."""
        if os.environ.get("REGEN_GOLDEN"):
            pytest.skip("fixtures being regenerated")
        with open(FIXTURE_PATH) as fh:
            expected = json.load(fh)
        snapshot = json.loads(json.dumps(cosim_snapshot(vectorized=True)))
        assert snapshot == expected
