"""Refund symmetry, request-table eviction and same-timestamp responses.

Pins the response/abort/refund bugfix sweep on every engine:

* **Refund symmetry** — a device whose daily budget is refunded (round
  abort, or a straggler response on a closed request) must be
  *immediately* re-dispatchable at that same timestamp, identically on
  both engines (single-queue and fleet).
* **Request-table boundedness** — closed requests are evicted from
  ``Simulator._requests`` (and their job's ``request_history``) once the
  last in-flight response fires, so multi-round runs no longer retain
  every request ever opened.
* **Same-timestamp response runs** — with deterministic latency whole
  rounds answer on one timestamp; the fleet engine's per-event merge
  order through such runs must match the single-queue reference.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import make_policy
from repro.resilience import RecordingPolicy, metrics_digest
from repro.sim.engine import SimulationConfig, Simulator
from tests.conftest import make_device, make_job
from tests.sim.test_engine import DETERMINISTIC_LATENCY, always_on_trace, make_trace

#: Engine variants every differential runs on.  The single-queue indexed
#: engine is the reference.
ENGINES = {
    "single-indexed": dict(),
    "vectorized": dict(vectorized=True),
}


def run_engine(
    devices,
    trace,
    jobs,
    *,
    horizon,
    policy_name="venn",
    daily=False,
    seed=0,
    vectorized=False,
    latency=DETERMINISTIC_LATENCY,
):
    """One recorded run; returns ``(sim, policy, metrics)``."""
    policy = RecordingPolicy(make_policy(policy_name, seed=7))
    config = SimulationConfig(
        horizon=horizon,
        seed=seed,
        latency=latency,
        enforce_daily_limit=daily,
        vectorized_dispatch=vectorized,
    )
    sim = Simulator(
        devices=devices,
        availability=trace,
        workload=jobs,
        policy=policy,
        config=config,
    )
    metrics = sim.run()
    return sim, policy, metrics


# --------------------------------------------------------------------- #
# Satellite: deadline-refund symmetry (abort path)
# --------------------------------------------------------------------- #
class TestRefundSymmetry:
    """The daily-budget refund must make devices re-dispatchable in the
    same timestamp batch, identically across engines — the single-queue
    engine refunds via ``_refund_daily_budget`` (un-parking the idle pool),
    the fleet engine via ``last_day[slot] = -1`` plus mask recompute."""

    def _abort_scenario(self, **overrides):
        """Two always-on devices, one job whose demand (3) can never fill:
        every attempt aborts at its deadline, refunding both participants
        — which must be re-assigned *at the deadline timestamp*."""
        devices = [make_device(device_id=i, speed=1.0) for i in range(2)]
        trace = always_on_trace(2, horizon=5_000.0)
        jobs = [
            make_job(job_id=1, demand=3, rounds=1, deadline=1_200.0,
                     base_task_duration=50.0)
        ]
        kwargs = dict(horizon=5_000.0, daily=True)
        kwargs.update(overrides)
        return run_engine(devices, trace, jobs, **kwargs)

    @pytest.mark.parametrize("policy_name", ["fifo", "venn"])
    def test_abort_refund_redispatches_at_deadline_on_every_engine(
        self, policy_name
    ):
        runs = {
            name: self._abort_scenario(policy_name=policy_name, **overrides)
            for name, overrides in ENGINES.items()
        }
        _, ref_policy, ref_metrics = runs["single-indexed"]
        # Both devices are assigned at t=0 and re-assigned at every abort:
        # the refund happens *inside* the deadline event, so the decisions
        # land exactly on the deadline timestamps.
        times = sorted({t for (t, _, _) in ref_policy.decisions})
        assert times == [0.0, 1_200.0, 2_400.0, 3_600.0, 4_800.0]
        for t in times:
            assert sum(1 for (d, _, _) in ref_policy.decisions if d == t) == 2
        assert ref_metrics.total_aborts >= 3
        for name, (_, policy, metrics) in runs.items():
            assert policy.decisions == ref_policy.decisions, name
            assert metrics_digest(metrics) == metrics_digest(ref_metrics), name

    def test_straggler_refund_redispatches_at_response_time(self):
        """A device still computing when its round aborts is refunded when
        its (discarded) response fires — and must be re-assignable in that
        same event, at the response timestamp, on every engine."""
        devices = [
            make_device(device_id=0, speed=1.0),
            make_device(device_id=1, speed=5.0),  # task takes 260 s
        ]
        trace = always_on_trace(2, horizon=1_000.0)

        def jobs():
            return [
                make_job(job_id=1, demand=2, rounds=2, deadline=150.0,
                         base_task_duration=50.0)
            ]

        runs = {
            name: run_engine(devices, trace, jobs(), horizon=1_000.0,
                             daily=True, **overrides)
            for name, overrides in ENGINES.items()
        }
        _, ref_policy, ref_metrics = runs["single-indexed"]
        times = [t for (t, _, _) in ref_policy.decisions]
        # t=0: both assigned.  t=150: abort (only the fast device reported
        # by then); the fast device is refunded in the abort and re-assigned
        # at 150.  t=260: the slow device's straggler response lands on the
        # closed request, refunds its budget, and re-dispatches it
        # immediately — at the response timestamp.
        assert times.count(0.0) == 2
        assert 150.0 in times
        assert 260.0 in times
        for name, (_, policy, metrics) in runs.items():
            assert policy.decisions == ref_policy.decisions, name
            assert metrics_digest(metrics) == metrics_digest(ref_metrics), name


# --------------------------------------------------------------------- #
# Satellite: request-table boundedness (eviction)
# --------------------------------------------------------------------- #
class TestRequestTableBoundedness:
    def _run(self, **overrides):
        """40 completing rounds plus an abort-forever job: by the horizon
        every closed request has drained its in-flight responses."""
        devices = [make_device(device_id=i, speed=1.0) for i in range(10)]
        trace = always_on_trace(10, horizon=60_000.0)
        jobs = [
            make_job(job_id=1, demand=4, rounds=40, deadline=2_000.0,
                     base_task_duration=50.0),
            # Demand 20 with 10 devices: aborts at every deadline, forever.
            make_job(job_id=2, demand=20, rounds=1, deadline=1_000.0,
                     base_task_duration=50.0),
        ]
        kwargs = dict(horizon=60_000.0, policy_name="fifo")
        kwargs.update(overrides)
        return run_engine(devices, trace, jobs, **kwargs)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_requests_evicted_once_drained(self, engine):
        sim, _, metrics = self._run(**ENGINES[engine])
        assert metrics.jobs[1].rounds_completed == 40
        assert metrics.total_aborts >= 30
        # Hundreds of requests were opened over the run...
        assert sim._request_counter >= 70
        # ...but only job 2's final (still-open) attempt may remain.
        assert len(sim._requests) <= 1
        for job in sim.jobs.values():
            assert len(job.request_history) <= 1

    def test_eviction_is_what_bounds_the_table(self, monkeypatch):
        """Regression teeth: with the eviction disabled (the pre-fix
        behaviour), the run retains every request it ever opened."""
        monkeypatch.setattr(
            Simulator, "_evict_request", lambda self, request: None
        )
        sim, _, _ = self._run()
        assert len(sim._requests) == sim._request_counter
        assert sim._request_counter >= 70


# --------------------------------------------------------------------- #
# Same-timestamp response runs through the per-event merge order
# --------------------------------------------------------------------- #
def contended_scenario():
    """Same-speed devices + deterministic latency: whole rounds respond at
    one timestamp — mixed success/failure (reliability split), completions
    mid-run, and failed devices re-dispatched to the other job's open
    demand.  The only scenario that drives long same-``time`` response runs
    through the fleet loop's stream/queue merge (``tests/sim/
    test_run_invariants.py`` holds its fleet run to the twin-free
    invariants too)."""
    devices = [
        make_device(
            device_id=i,
            cpu=0.2 + 0.07 * (i % 10),
            mem=0.2 + 0.05 * (i % 12),
            speed=1.0,
            reliability=1.0 if i < 10 else 0.6,
        )
        for i in range(16)
    ]
    trace = always_on_trace(16, horizon=30_000.0)
    jobs = [
        make_job(job_id=1, demand=8, rounds=4, deadline=2_000.0,
                 base_task_duration=50.0),
        make_job(job_id=2, demand=5, rounds=3, deadline=2_500.0,
                 base_task_duration=80.0),
    ]
    return devices, trace, jobs


class TestSameTimestampResponseRuns:
    @pytest.mark.parametrize("policy_name", ["venn", "fifo", "random"])
    @pytest.mark.parametrize("daily", [False, True])
    def test_vectorized_matches_single_queue(self, policy_name, daily):
        devices, trace, jobs = contended_scenario()
        _, pol_v, met_v = run_engine(
            devices, trace, jobs, horizon=30_000.0, policy_name=policy_name,
            daily=daily, vectorized=True,
        )
        _, pol_s, met_s = run_engine(
            devices, trace, jobs, horizon=30_000.0, policy_name=policy_name,
            daily=daily,
        )
        assert pol_v.decision_hash == pol_s.decision_hash
        assert metrics_digest(met_v) == metrics_digest(met_s)
