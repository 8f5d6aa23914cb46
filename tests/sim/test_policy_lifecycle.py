"""What a policy is told when a round succeeds.

``Simulator._maybe_complete_request`` calls ``job.complete_round`` — which
moves the request to ``COMPLETED`` and stamps its ``close_time`` — and only
then ``policy.on_request_closed``, the order the deadline path already used
for an aborted round.  So the hook of a successful round sees a completed
request with a known ``response_collection_time``, and two things follow:

* ``BasePolicy.on_request_closed`` counts the round, so ``rounds_completed``
  follows the job and ``remaining_job_demand`` is its *remaining* service
  (SRSF, and Venn's ``"total"`` intra-group order);
* ``VennScheduler.on_request_closed`` feeds ``TierMatcher.record_round``,
  which fits the job's tiers, so Algorithm 2 can restrict a request.

``repro.invariants.check_round_closes`` states the same contract for any
finished fleet run.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.baselines import FIFOPolicy, make_policy
from repro.core.matching import TierMatcher
from repro.core.requirements import GENERAL
from repro.core.types import RequestState
from repro.experiments.sweep import smoke_base_config
from repro.resilience.record import RecordingPolicy
from repro.scenarios import get_scenario
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.latency import LatencyConfig
from repro.traces.device_trace import AvailabilitySession, DeviceAvailabilityTrace

from tests.conftest import make_device, make_job

HORIZON = 10_000.0

ENGINES = {
    "single-queue": dict(vectorized_dispatch=False),
    "vectorized": dict(vectorized_dispatch=True),
}


class LifecycleRecorder(FIFOPolicy):
    """FIFO that writes down what the lifecycle hooks were shown."""

    def __init__(self) -> None:
        super().__init__()
        #: ``(state, response_collection_time)`` of every closed request, as
        #: read inside the hook.
        self.closes = []
        #: ``(round_index, rounds_completed[job])`` at every request open.
        self.opens = []

    def on_request_open(self, request, now):
        super().on_request_open(request, now)
        self.opens.append(
            (request.round_index, self.rounds_completed[request.job_id])
        )

    def on_request_closed(self, request, now):
        self.closes.append((request.state, request.response_collection_time))
        super().on_request_closed(request, now)


def run_two_jobs(engine: str):
    """Two three-round jobs over 30 always-online, fully reliable devices:
    every round succeeds, none aborts."""
    devices = [make_device(device_id=i) for i in range(30)]
    trace = DeviceAvailabilityTrace(
        HORIZON,
        sessions=[AvailabilitySession(i, 1.0 + i, HORIZON) for i in range(30)],
    )
    jobs = [
        make_job(job_id=1, requirement=GENERAL, demand=4, rounds=3, arrival=50.0),
        make_job(job_id=2, requirement=GENERAL, demand=3, rounds=3, arrival=80.0),
    ]
    policy = LifecycleRecorder()
    config = SimulationConfig(
        horizon=HORIZON, seed=3, enforce_daily_limit=False,
        latency=LatencyConfig(compute_sigma=0.0, comm_min=5.0, comm_max=5.0),
        **ENGINES[engine],
    )
    metrics = Simulator(devices, trace, jobs, policy, config).run()
    return policy, metrics


@pytest.mark.parametrize("engine", ENGINES)
def test_the_run_is_six_successful_rounds(engine):
    """What the two below take for granted about the run, so that they can
    only fail for the reason they name."""
    policy, metrics = run_two_jobs(engine)
    assert metrics.total_aborts == 0
    assert [jm.rounds_completed for jm in metrics.jobs.values()] == [3, 3]
    assert len(policy.closes) == 6
    assert sorted(k for k, _done in policy.opens) == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("engine", ENGINES)
def test_closed_request_of_a_successful_round_is_completed(engine):
    policy, _metrics = run_two_jobs(engine)
    for state, collection_time in policy.closes:
        assert state is RequestState.COMPLETED
        assert collection_time is not None


@pytest.mark.parametrize("engine", ENGINES)
def test_rounds_completed_follows_the_running_job(engine):
    policy, _metrics = run_two_jobs(engine)
    # No round aborts, so a job's k-th round opens once k rounds completed.
    for round_index, done in policy.opens:
        assert done == round_index


@pytest.mark.parametrize("engine", ENGINES)
def test_tier_matching_moves_decisions_on_a_contended_cell(engine, monkeypatch):
    """Algorithm 2 runs: on the ``flash_crowd`` smoke cell (a burst of
    arrivals contending for one fleet) some ``decide()`` restricts a request
    to a tier, and Venn's decisions differ from those of Venn without
    matching."""
    decisions = []
    decide = TierMatcher.decide

    def spy(matcher):
        decision = decide(matcher)
        decisions.append(decision)
        return decision

    monkeypatch.setattr(TierMatcher, "decide", spy)
    env = get_scenario("flash_crowd").build_environment(
        smoke_base_config(seed=0)
    )
    config = replace(env.config.simulation, **ENGINES[engine])
    hashes = {}
    for name in ("venn", "venn_wo_match"):
        policy = RecordingPolicy(
            make_policy(name, seed=env.config.seed_for("policy"))
        )
        Simulator(
            env.devices, env.availability, env.workload, policy, config
        ).run()
        hashes[name] = policy.decision_hash
    assert any(d.use_tier for d in decisions)  # only Venn builds matchers
    assert hashes["venn"] != hashes["venn_wo_match"]
