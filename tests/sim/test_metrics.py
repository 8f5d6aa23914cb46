"""Focused unit tests for :mod:`repro.sim.metrics`.

``tests/sim/test_latency_metrics.py`` covers the latency model and the
speed-up helpers; this module pins down the JCT accounting itself —
censoring, percentile edge cases, SLA attainment and the error rate — which
the sweep rows are built from.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.job import JobRuntime
from repro.sim.metrics import JobMetrics, SimulationMetrics, collect_job_metrics
from tests.conftest import make_job


def job_metrics(
    job_id,
    jct,
    *,
    arrival=0.0,
    completed=None,
    num_rounds=2,
    round_deadline=600.0,
    aborted=0,
):
    completed = completed if completed is not None else jct is not None
    return JobMetrics(
        job_id=job_id,
        name=f"job-{job_id}",
        category="general",
        demand_per_round=10,
        num_rounds=num_rounds,
        total_demand=10 * num_rounds,
        arrival_time=arrival,
        completed=completed,
        jct=jct,
        aborted_rounds=aborted,
        round_deadline=round_deadline,
    )


class TestJctAccounting:
    def test_censoring_charges_horizon_minus_arrival(self):
        m = SimulationMetrics(policy="p", horizon=10_000.0)
        m.jobs[1] = job_metrics(1, None, arrival=4_000.0)
        assert m.job_jcts() == {1: 6_000.0}
        assert m.job_jcts(censor_to_horizon=False) == {}

    def test_censoring_never_negative(self):
        """A job arriving after the horizon is charged 0, not a negative JCT."""
        m = SimulationMetrics(policy="p", horizon=1_000.0)
        m.jobs[1] = job_metrics(1, None, arrival=5_000.0)
        assert m.job_jcts() == {1: 0.0}

    def test_average_mixes_finished_and_censored(self):
        m = SimulationMetrics(policy="p", horizon=10_000.0)
        m.jobs[1] = job_metrics(1, 2_000.0)
        m.jobs[2] = job_metrics(2, None, arrival=4_000.0)
        assert m.average_jct == pytest.approx((2_000.0 + 6_000.0) / 2)
        assert m.average_completed_jct == pytest.approx(2_000.0)

    def test_empty_run_is_all_zeros(self):
        m = SimulationMetrics(policy="p", horizon=1.0)
        assert m.average_jct == 0.0
        assert m.average_completed_jct == 0.0
        assert m.completion_rate == 0.0
        assert m.jct_percentile(50.0) == 0.0
        assert m.sla_attainment() == 0.0
        assert m.error_rate == 0.0


class TestPercentiles:
    def test_single_job_every_percentile_equals_its_jct(self):
        m = SimulationMetrics(policy="p", horizon=1e6)
        m.jobs[1] = job_metrics(1, 1234.0)
        for p in (0.0, 50.0, 99.0, 100.0):
            assert m.jct_percentile(p) == pytest.approx(1234.0)

    def test_percentile_interpolation(self):
        m = SimulationMetrics(policy="p", horizon=1e6)
        for i, jct in enumerate([100.0, 200.0, 300.0, 400.0]):
            m.jobs[i] = job_metrics(i, jct)
        assert m.jct_percentile(50.0) == pytest.approx(250.0)
        assert m.jct_percentile(0.0) == pytest.approx(100.0)
        assert m.jct_percentile(100.0) == pytest.approx(400.0)

    def test_percentiles_include_censored_jobs(self):
        m = SimulationMetrics(policy="p", horizon=10_000.0)
        m.jobs[1] = job_metrics(1, 100.0)
        m.jobs[2] = job_metrics(2, None, arrival=0.0)  # censored to 10_000
        assert m.jct_percentile(100.0) == pytest.approx(10_000.0)

    def test_percentile_bounds_validated(self):
        m = SimulationMetrics(policy="p", horizon=1.0)
        with pytest.raises(ValueError):
            m.jct_percentile(-1.0)
        with pytest.raises(ValueError):
            m.jct_percentile(101.0)

    def test_jct_percentiles_mapping(self):
        m = SimulationMetrics(policy="p", horizon=1e6)
        m.jobs[1] = job_metrics(1, 500.0)
        out = m.jct_percentiles((50.0, 99.0))
        assert set(out) == {50.0, 99.0}
        assert out[50.0] == pytest.approx(500.0)

    @given(
        jcts=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_percentiles_are_monotone_and_bounded(self, jcts):
        m = SimulationMetrics(policy="p", horizon=1e9)
        for i, jct in enumerate(jcts):
            m.jobs[i] = job_metrics(i, jct)
        p50, p99 = m.jct_percentile(50.0), m.jct_percentile(99.0)
        assert min(jcts) <= p50 <= p99 <= max(jcts)


class TestSlaAndErrorRate:
    def test_sla_counts_only_jobs_within_budget(self):
        m = SimulationMetrics(policy="p", horizon=1e6)
        # Budget = 2 rounds x 600 s = 1200 s; scale 2 -> 2400 s allowance.
        m.jobs[1] = job_metrics(1, 2_000.0)
        m.jobs[2] = job_metrics(2, 3_000.0)
        assert m.sla_attainment(slo_scale=2.0) == pytest.approx(0.5)

    def test_unfinished_job_never_attains(self):
        m = SimulationMetrics(policy="p", horizon=100.0)
        # Censored JCT would be tiny, but the job did not complete.
        m.jobs[1] = job_metrics(1, None, arrival=99.0)
        assert m.sla_attainment() == 0.0

    def test_jobs_without_deadline_are_excluded(self):
        m = SimulationMetrics(policy="p", horizon=1e6)
        m.jobs[1] = job_metrics(1, 10.0, round_deadline=0.0)
        assert m.sla_attainment() == 0.0
        m.jobs[2] = job_metrics(2, 10.0)
        assert m.sla_attainment() == pytest.approx(1.0)

    def test_slo_scale_monotone(self):
        m = SimulationMetrics(policy="p", horizon=1e6)
        for i, jct in enumerate([1_000.0, 2_500.0, 6_000.0]):
            m.jobs[i] = job_metrics(i, jct)
        scales = [1.0, 2.0, 5.0]
        values = [m.sla_attainment(slo_scale=s) for s in scales]
        assert values == sorted(values)

    def test_slo_scale_validated(self):
        with pytest.raises(ValueError):
            SimulationMetrics(policy="p", horizon=1.0).sla_attainment(slo_scale=0.0)

    def test_error_rate(self):
        m = SimulationMetrics(policy="p", horizon=1.0)
        m.total_responses = 75
        m.total_failures = 25
        assert m.error_rate == pytest.approx(0.25)


class TestCollectJobMetrics:
    def _finished_runtime(self):
        spec = make_job(job_id=7, demand=2, rounds=1, deadline=500.0)
        runtime = JobRuntime(spec=spec)
        request = runtime.open_round_request(1, 10.0)
        request.record_assignment(1, 20.0)
        request.record_assignment(2, 30.0)
        request.record_response(1)
        request.record_response(2)
        runtime.complete_round(50.0)
        return runtime

    def test_carries_spec_deadline_into_metrics(self):
        jm = collect_job_metrics(self._finished_runtime())
        assert jm.round_deadline == 500.0
        assert jm.slo_target == pytest.approx(500.0)
        assert jm.completed
        assert jm.jct == pytest.approx(50.0 - jm.arrival_time)

    def test_aborted_attempts_counted_including_inflight(self):
        spec = make_job(job_id=8, demand=2, rounds=2, deadline=500.0)
        runtime = JobRuntime(spec=spec)
        runtime.open_round_request(1, 0.0)
        runtime.abort_round(500.0)
        runtime.open_round_request(2, 500.0)
        jm = collect_job_metrics(runtime)
        # One recorded abort plus the still-in-flight attempt counter.
        assert jm.aborted_rounds == runtime.rounds[0].aborted_attempts + runtime.attempt
        assert not jm.completed
        assert jm.jct is None


class TestDegenerateSlaBudget:
    """``round_deadline=0`` means "no deadline recorded", not "zero budget":
    such jobs are excluded from the SLA numerator *and* denominator."""

    def test_zero_deadline_excluded_from_both_sides(self):
        m = SimulationMetrics(policy="p", horizon=10_000.0)
        m.jobs[1] = job_metrics(1, 100.0, round_deadline=0.0)
        m.jobs[2] = job_metrics(2, 100.0, round_deadline=600.0)
        # Job 1 carries no budget, so attainment is decided by job 2 alone.
        assert m.sla_attainment() == 1.0

    def test_only_degenerate_budgets_yields_zero_not_nan(self):
        m = SimulationMetrics(policy="p", horizon=10_000.0)
        m.jobs[1] = job_metrics(1, 100.0, round_deadline=0.0)
        assert m.sla_attainment() == 0.0

    def test_adding_degenerate_job_cannot_lower_attainment(self):
        m = SimulationMetrics(policy="p", horizon=10_000.0)
        m.jobs[1] = job_metrics(1, 50.0, round_deadline=600.0)
        assert m.sla_attainment() == 1.0
        # A zero-budget job that completed instantly must not read as "missed".
        m.jobs[2] = job_metrics(2, 0.0, round_deadline=0.0)
        assert m.sla_attainment() == 1.0

    def test_negative_deadline_also_excluded(self):
        m = SimulationMetrics(policy="p", horizon=10_000.0)
        m.jobs[1] = job_metrics(1, 100.0, round_deadline=-5.0)
        m.jobs[2] = job_metrics(2, 100.0, round_deadline=600.0)
        assert m.sla_attainment() == 1.0


class TestRoundDurations:
    """The round-completion-time (FCT analogue) aggregates behind the
    network-degradation sweep metric."""

    def _metrics(self):
        m = SimulationMetrics(policy="p", horizon=1_000.0)
        m.jobs[2] = job_metrics(2, 100.0)
        m.jobs[2].round_durations = [30.0, 50.0]
        m.jobs[1] = job_metrics(1, 100.0)
        m.jobs[1].round_durations = [10.0]
        return m

    def test_pooled_in_job_id_then_round_order(self):
        assert self._metrics().round_durations() == [10.0, 30.0, 50.0]

    def test_average_and_percentiles(self):
        m = self._metrics()
        assert m.average_round_duration == pytest.approx(30.0)
        assert m.round_duration_percentile(50.0) == pytest.approx(30.0)
        assert m.round_duration_percentile(100.0) == pytest.approx(50.0)

    def test_empty_run_is_zero(self):
        m = SimulationMetrics(policy="p", horizon=1.0)
        assert m.average_round_duration == 0.0
        assert m.round_duration_percentile(99.0) == 0.0

    def test_percentile_bounds_validated(self):
        with pytest.raises(ValueError):
            self._metrics().round_duration_percentile(101.0)

    def test_collect_gathers_durations_of_completed_rounds(self):
        runtime = JobRuntime(spec=make_job(job_id=9, demand=1, rounds=1, arrival=10.0))
        request = runtime.open_round_request(1, now=20.0)
        request.record_assignment(3, 30.0)
        request.record_response(3)
        runtime.complete_round(45.0)
        jm = collect_job_metrics(runtime)
        assert jm.round_durations == [pytest.approx(25.0)]
