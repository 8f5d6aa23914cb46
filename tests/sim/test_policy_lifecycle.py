"""What a policy is told when a round succeeds — pinned, not yet fixed.

``Simulator._maybe_complete_request`` calls ``policy.on_request_closed``
*before* ``job.complete_round`` moves the request to ``COMPLETED`` and stamps
its ``close_time``.  So a policy never sees a completed request: it sees one
still ``COLLECTING``, whose ``response_collection_time`` is ``None``.  Two
consequences reach decisions:

* ``BasePolicy.on_request_closed`` counts a round only when the state reads
  ``"completed"``, so ``rounds_completed`` stays 0 and
  ``remaining_job_demand`` is a job's *total* service, not its remaining one
  (SRSF, and Venn's ``"total"`` intra-group order);
* ``VennScheduler.on_request_closed`` feeds ``TierMatcher.record_round`` only
  when the collection time is known, so no matcher ever gets a profile and
  Algorithm 2 never restricts a request.

Fixing the order moves ``avg_jct_s`` on every contended cell and re-pins
every golden, so it is its own PR (``docs/ARCHITECTURE.md`` § Known defects).
The tests below are ``xfail(strict=True)``: they fail loudly the day the
order is fixed, which is when the marks — and this paragraph — go.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import FIFOPolicy
from repro.core.requirements import GENERAL
from repro.core.types import RequestState
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
    """Not an xfail: what the two below take for granted about the run, so
    that they can only fail for the reason their marks give."""
    policy, metrics = run_two_jobs(engine)
    assert metrics.total_aborts == 0
    assert [jm.rounds_completed for jm in metrics.jobs.values()] == [3, 3]
    assert len(policy.closes) == 6
    assert sorted(k for k, _done in policy.opens) == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="on_request_closed runs before complete_round: state is COLLECTING",
)
def test_closed_request_of_a_successful_round_is_completed(engine):
    policy, _metrics = run_two_jobs(engine)
    for state, collection_time in policy.closes:
        assert state is RequestState.COMPLETED
        assert collection_time is not None


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rounds_completed never advances: the hook never sees 'completed'",
)
def test_rounds_completed_follows_the_running_job(engine):
    policy, _metrics = run_two_jobs(engine)
    # No round aborts, so a job's k-th round opens once k rounds completed.
    for round_index, done in policy.opens:
        assert done == round_index
