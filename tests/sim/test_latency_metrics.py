"""Tests for the latency model and the metrics aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.job import JobRuntime
from repro.sim.latency import LatencyConfig, ResponseLatencyModel
from repro.sim.metrics import (
    JobMetrics,
    SimulationMetrics,
    collect_job_metrics,
)
from tests.conftest import make_device, make_job


class TestLatencyModel:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LatencyConfig(compute_sigma=-1)
        with pytest.raises(ValueError):
            LatencyConfig(comm_min=10, comm_max=5)

    def test_durations_positive_and_scale_with_speed(self):
        model = ResponseLatencyModel(per_device_entropy=0)
        job = make_job(base_task_duration=60.0)
        fast = make_device(device_id=1, speed=0.5)
        slow = make_device(device_id=2, speed=5.0)
        fast_mean = np.mean([model.sample_duration(job, fast) for _ in range(200)])
        slow_mean = np.mean([model.sample_duration(job, slow) for _ in range(200)])
        assert fast_mean > 0
        assert slow_mean > 2 * fast_mean

    def test_expected_duration_close_to_empirical_mean(self):
        model = ResponseLatencyModel(per_device_entropy=1)
        job = make_job(base_task_duration=60.0)
        device = make_device(speed=2.0)
        empirical = np.mean([model.sample_duration(job, device) for _ in range(3000)])
        assert abs(empirical - model.expected_duration(job, device)) / empirical < 0.1

    def test_tail_duration_exceeds_expected(self):
        model = ResponseLatencyModel(per_device_entropy=1)
        job = make_job(base_task_duration=60.0)
        device = make_device(speed=2.0)
        assert model.tail_duration(job, device, 95.0) > model.expected_duration(
            job, device
        )

    def test_failure_rate_matches_reliability(self):
        model = ResponseLatencyModel(per_device_entropy=2)
        flaky = make_device(reliability=0.7)
        failures = sum(model.sample_failure(flaky) for _ in range(5000))
        assert abs(failures / 5000 - 0.3) < 0.05

    def test_reliable_device_never_fails(self):
        model = ResponseLatencyModel(per_device_entropy=3)
        solid = make_device(reliability=1.0)
        assert not any(model.sample_failure(solid) for _ in range(200))


def _job_metrics(job_id, jct, category="general", total_demand=100, arrival=0.0,
                 sched=(100.0,), resp=(50.0,), completed=True):
    return JobMetrics(
        job_id=job_id,
        name=f"job-{job_id}",
        category=category,
        demand_per_round=10,
        num_rounds=5,
        total_demand=total_demand,
        arrival_time=arrival,
        completed=completed,
        jct=jct,
        scheduling_delays=list(sched),
        response_times=list(resp),
    )


class TestSimulationMetrics:
    def _metrics(self):
        m = SimulationMetrics(policy="test", horizon=10_000.0)
        m.jobs[1] = _job_metrics(1, 1000.0, "general", total_demand=50)
        m.jobs[2] = _job_metrics(2, 3000.0, "high_performance", total_demand=500)
        m.jobs[3] = _job_metrics(
            3, None, "general", total_demand=200, arrival=2000.0, completed=False
        )
        return m

    def test_average_jct_censors_unfinished(self):
        m = self._metrics()
        expected = (1000.0 + 3000.0 + (10_000.0 - 2000.0)) / 3
        assert m.average_jct == pytest.approx(expected)

    def test_average_completed_jct(self):
        m = self._metrics()
        assert m.average_completed_jct == pytest.approx(2000.0)

    def test_completion_rate(self):
        assert self._metrics().completion_rate == pytest.approx(2 / 3)

    def test_breakdown_averages(self):
        m = self._metrics()
        assert m.average_scheduling_delay == pytest.approx(100.0)
        assert m.average_response_time == pytest.approx(50.0)

    def test_jct_by_category(self):
        by_cat = self._metrics().jct_by_category()
        assert by_cat["high_performance"] == pytest.approx(3000.0)
        assert by_cat["general"] == pytest.approx((1000.0 + 8000.0) / 2)

    def test_jct_by_demand_percentile_monotone_sets(self):
        m = self._metrics()
        result = m.jct_by_demand_percentile((25.0, 100.0))
        assert set(result) == {25.0, 100.0}
        # The 100th percentile includes every job.
        assert result[100.0] == pytest.approx(m.average_jct)

    def test_empty_metrics(self):
        m = SimulationMetrics(policy="x", horizon=100.0)
        assert m.average_jct == 0.0
        assert m.completion_rate == 0.0
        assert m.jct_by_demand_percentile() == {25.0: 0.0, 50.0: 0.0, 75.0: 0.0}

    def test_jct_by_demand_percentile_keys_are_floats(self):
        # Integer percentiles normalise to float keys, so callers indexing
        # with 25 vs 25.0 agree (and empty metrics agree with populated).
        m = self._metrics()
        result = m.jct_by_demand_percentile((25, 50, 100))
        assert all(type(k) is float for k in result)
        assert result[25.0] == result[25]  # float keys match int lookups
        empty = SimulationMetrics(policy="x", horizon=100.0)
        assert all(type(k) is float for k in empty.jct_by_demand_percentile((25, 75)))

    def test_jct_by_demand_percentile_ties_at_cut_included(self):
        # Two jobs share the minimum demand; p=0's cut equals that demand
        # and the inclusive <= keeps BOTH, not neither.
        m = SimulationMetrics(policy="test", horizon=10_000.0)
        m.jobs[1] = _job_metrics(1, 1000.0, total_demand=50)
        m.jobs[2] = _job_metrics(2, 3000.0, total_demand=50)
        m.jobs[3] = _job_metrics(3, 9000.0, total_demand=500)
        result = m.jct_by_demand_percentile((0.0, 100.0))
        assert result[0.0] == pytest.approx(2000.0)  # mean of the tied pair
        assert result[100.0] == pytest.approx(m.average_jct)

    def test_jct_by_demand_percentile_nan_free(self):
        # The minimum-demand job always satisfies demand <= cut, so no
        # bucket is empty and no NaN can appear — even at p=0.
        import math

        m = self._metrics()
        result = m.jct_by_demand_percentile((0.0, 1.0, 25.0, 99.0, 100.0))
        assert all(not math.isnan(v) for v in result.values())
        assert result[0.0] == pytest.approx(1000.0)  # just the min-demand job
        # Buckets are monotone supersets as p grows.
        ordered = [result[p] for p in (0.0, 1.0, 25.0, 99.0, 100.0)]
        assert ordered[0] == ordered[1] == ordered[2]  # same single-job bucket


class TestCollectJobMetrics:
    def test_collect_from_runtime(self):
        runtime = JobRuntime(spec=make_job(job_id=4, demand=1, rounds=1, arrival=10.0))
        request = runtime.open_round_request(1, now=20.0)
        request.record_assignment(3, 30.0)
        request.record_response(3)
        runtime.complete_round(45.0)
        jm = collect_job_metrics(runtime, category="memory_rich")
        assert jm.completed
        assert jm.category == "memory_rich"
        assert jm.jct == pytest.approx(35.0)
        assert jm.scheduling_delays == [pytest.approx(10.0)]
        assert jm.response_times == [pytest.approx(15.0)]
        assert jm.aborted_rounds == 0

    def test_collect_counts_aborts_and_in_flight_attempts(self):
        runtime = JobRuntime(spec=make_job(job_id=5, demand=2, rounds=1))
        runtime.open_round_request(1, now=0.0)
        runtime.abort_round(600.0)
        runtime.open_round_request(2, now=600.0)
        runtime.abort_round(1200.0)
        jm = collect_job_metrics(runtime)
        assert not jm.completed
        assert jm.jct is None
        assert jm.aborted_rounds == 2
