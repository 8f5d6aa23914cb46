"""Edge-case tests for :mod:`repro.analysis.report` and
:mod:`repro.analysis.stats`.

``tests/analysis/test_analysis.py`` covers the happy paths; this module
targets the branches that only fire on degenerate input — empty and
single-sample collections, zero-variance confidence intervals, metrics
objects with no jobs — which is exactly the shape a sweep cell can take
when every job misses its targets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import (
    format_cell,
    format_series,
    format_table,
)
from repro.analysis.stats import (
    average_jct_speedup,
    fairness_satisfaction,
    jct_breakdown,
    mean_confidence_interval,
    summarize_run,
)
from repro.sim.metrics import JobMetrics, SimulationMetrics


def empty_metrics(policy: str = "venn") -> SimulationMetrics:
    return SimulationMetrics(policy=policy, horizon=1000.0)


def single_job_metrics(jct: float = 100.0) -> SimulationMetrics:
    m = empty_metrics()
    m.jobs[0] = JobMetrics(
        job_id=0,
        name="job-0",
        category="general",
        demand_per_round=5,
        num_rounds=1,
        total_demand=5,
        arrival_time=0.0,
        completed=True,
        jct=jct,
    )
    return m


class TestMeanConfidenceInterval:
    def test_empty_sample_collapses_to_zero(self):
        assert mean_confidence_interval([]) == (0.0, 0.0, 0.0)

    def test_single_sample_is_degenerate_at_mean(self):
        assert mean_confidence_interval([42.0]) == (42.0, 42.0, 42.0)

    def test_zero_variance_is_degenerate_at_mean(self):
        assert mean_confidence_interval([3.0, 3.0, 3.0]) == (3.0, 3.0, 3.0)

    def test_interval_brackets_the_mean(self):
        mean, low, high = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        assert low < mean < high
        # Symmetric by construction.
        assert mean - low == pytest.approx(high - mean)

    def test_matches_student_t_by_hand(self):
        values = [10.0, 12.0, 14.0, 16.0]
        from scipy import stats as scipy_stats

        sem = np.std(values, ddof=1) / np.sqrt(len(values))
        half = scipy_stats.t.ppf(0.975, len(values) - 1) * sem
        mean, low, high = mean_confidence_interval(values)
        assert low == pytest.approx(np.mean(values) - half)
        assert high == pytest.approx(np.mean(values) + half)

    def test_wider_at_higher_confidence(self):
        values = [1.0, 5.0, 9.0, 13.0]
        _, low95, high95 = mean_confidence_interval(values, confidence=0.95)
        _, low99, high99 = mean_confidence_interval(values, confidence=0.99)
        assert low99 < low95 and high99 > high95

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 2.0])
    def test_confidence_validated(self, confidence):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=confidence)


class TestMetricsDegeneracy:
    def test_empty_run_aggregates_to_zero(self):
        m = empty_metrics()
        assert m.average_jct == 0.0
        assert m.average_completed_jct == 0.0
        assert m.completion_rate == 0.0
        assert m.average_scheduling_delay == 0.0
        assert m.average_response_time == 0.0
        assert m.error_rate == 0.0
        assert m.jct_percentile(50.0) == 0.0
        assert m.sla_attainment() == 0.0
        assert m.jct_by_category() == {}
        assert m.jct_by_demand_percentile() == {25.0: 0.0, 50.0: 0.0, 75.0: 0.0}

    def test_percentile_bounds_validated(self):
        with pytest.raises(ValueError):
            empty_metrics().jct_percentile(-1.0)
        with pytest.raises(ValueError):
            empty_metrics().jct_percentile(101.0)

    def test_single_job_every_percentile_is_its_jct(self):
        m = single_job_metrics(jct=123.0)
        assert m.jct_percentile(1.0) == 123.0
        assert m.jct_percentile(50.0) == 123.0
        assert m.jct_percentile(99.0) == 123.0

    def test_sla_attainment_without_deadlines_is_zero(self):
        # round_deadline defaults to 0 -> no job carries an SLO target.
        assert single_job_metrics().sla_attainment() == 0.0

    def test_sla_scale_validated(self):
        with pytest.raises(ValueError):
            single_job_metrics().sla_attainment(slo_scale=0.0)

    def test_speedup_with_zero_jct_policy_is_infinite(self):
        results = {
            "random": single_job_metrics(jct=100.0),
            "instant": empty_metrics("instant"),
        }
        speedups = average_jct_speedup(results, baseline="random")
        assert speedups["instant"] == float("inf")

    def test_fairness_of_empty_metrics(self):
        assert fairness_satisfaction(empty_metrics(), {0: 1.0}) == 0.0

    def test_breakdown_of_empty_metrics(self):
        row = jct_breakdown(empty_metrics(), label="empty")
        assert row.total == 0.0

    def test_summarize_empty_run(self):
        summary = summarize_run(empty_metrics())
        assert summary["average_jct"] == 0.0
        assert summary["completion_rate"] == 0.0


class TestReportEdges:
    def test_format_table_with_no_rows_prints_headers(self):
        text = format_table(["a", "bb"], [], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 3  # title, header, rule — no data rows

    def test_format_series_empty_axis(self):
        text = format_series([], {"acc": []}, x_label="t")
        assert "t" in text and "acc" in text

    def test_format_series_multiple_series_alignment(self):
        text = format_series(
            [1.0], {"a": [0.25], "b": [0.5]}, precision=2
        )
        assert "0.25" in text and "0.50" in text

    def test_format_cell_bool_not_formatted_as_float(self):
        assert format_cell(True) == "True"
        assert format_cell(1.0, precision=3) == "1.000"
        assert format_cell("x") == "x"
