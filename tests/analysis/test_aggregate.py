"""Tests for the sweep aggregation step (:mod:`repro.analysis.aggregate`)
and the stats helpers it builds on."""

from __future__ import annotations

import pytest

from repro.analysis.aggregate import (
    AggregateRow,
    aggregate_rows,
    format_aggregates,
    metrics_row,
)
from repro.analysis.stats import summarize_run
from repro.sim.metrics import JobMetrics, SimulationMetrics


def make_row(scenario="s", policy="venn", jcts=(100.0,), sla=1.0, err=0.0, aborts=0):
    return {
        "scenario": scenario,
        "policy": policy,
        "job_jcts": list(jcts),
        "sla_attainment": sla,
        "error_rate": err,
        "completion_rate": 1.0,
        "total_aborts": aborts,
    }


class TestAggregateRows:
    def test_pooled_percentiles_weight_by_job_not_cell(self):
        rows = [
            make_row(jcts=[100.0, 100.0, 100.0]),
            make_row(jcts=[500.0]),
        ]
        agg = aggregate_rows(rows)[("s", "venn")]
        # Pooled over 4 jobs -> mean 200; a cell-of-cells mean would be 300.
        assert agg.mean_jct == pytest.approx(200.0)
        assert agg.num_jobs == 4
        assert agg.p50_jct == pytest.approx(100.0)

    def test_p99_tracks_tail(self):
        jcts = [float(i) for i in range(1, 101)]
        agg = aggregate_rows([make_row(jcts=jcts)])[("s", "venn")]
        assert agg.p99_jct == pytest.approx(99.01)

    def test_empty_job_lists_yield_zero_jct(self):
        agg = aggregate_rows([make_row(jcts=())])[("s", "venn")]
        assert agg.mean_jct == 0.0
        assert agg.num_jobs == 0

    def test_rate_metrics_are_cell_means(self):
        rows = [make_row(sla=1.0, err=0.0), make_row(sla=0.0, err=0.4)]
        agg = aggregate_rows(rows)[("s", "venn")]
        assert agg.sla_attainment == pytest.approx(0.5)
        assert agg.error_rate == pytest.approx(0.2)

    def test_empty_input(self):
        assert aggregate_rows([]) == {}


class TestFormatAggregates:
    def test_table_mentions_every_group(self):
        aggs = aggregate_rows(
            [make_row(scenario="alpha"), make_row(scenario="beta", policy="random")]
        )
        text = format_aggregates(aggs)
        assert "alpha" in text and "beta" in text
        assert "p99 JCT" in text

    def test_empty_aggregate_formats(self):
        assert "(no rows)" in format_aggregates({})


class TestStatsAggregation:
    """The satellite's stats.py check: summarize_run must agree with the
    metrics object it flattens (the sweep rows rely on both)."""

    def test_summary_agrees_with_metrics(self):
        m = SimulationMetrics(policy="venn", horizon=10_000.0)
        m.jobs[1] = JobMetrics(
            job_id=1,
            name="a",
            category="general",
            demand_per_round=5,
            num_rounds=2,
            total_demand=10,
            arrival_time=0.0,
            completed=True,
            jct=4_000.0,
            round_deadline=600.0,
        )
        m.jobs[2] = JobMetrics(
            job_id=2,
            name="b",
            category="general",
            demand_per_round=5,
            num_rounds=2,
            total_demand=10,
            arrival_time=2_000.0,
            completed=False,
            jct=None,
            round_deadline=600.0,
        )
        m.total_responses, m.total_failures, m.total_aborts = 9, 1, 2
        summary = summarize_run(m)
        assert summary["average_jct"] == pytest.approx((4_000.0 + 8_000.0) / 2)
        assert summary["completion_rate"] == pytest.approx(0.5)
        assert summary["total_aborts"] == 2.0
        assert m.error_rate == pytest.approx(0.1)
        # Job 1's budget is 1200 s x 2 scale = 2400 s < 4000 s: missed.
        assert m.sla_attainment() == 0.0
        assert m.sla_attainment(slo_scale=4.0) == pytest.approx(0.5)


class TestMetricsRow:
    """In-memory aggregation over SimulationMetrics objects."""

    def _metrics(self, jcts, policy="venn", horizon=10_000.0):
        m = SimulationMetrics(policy=policy, horizon=horizon)
        for i, jct in enumerate(jcts, start=1):
            m.jobs[i] = JobMetrics(
                job_id=i, name=f"j{i}", category="general",
                demand_per_round=5, num_rounds=1, total_demand=5,
                arrival_time=0.0, completed=jct is not None, jct=jct,
                round_deadline=600.0,
            )
        return m

    def test_rows_pool_by_scenario_and_policy(self):
        cells = [
            ("even", "venn", self._metrics([100.0, 200.0])),
            ("even", "venn", self._metrics([300.0])),
            ("even", "random", self._metrics([500.0])),
        ]
        aggs = aggregate_rows([metrics_row(s, p, m) for s, p, m in cells])
        assert sorted(aggs) == [("even", "random"), ("even", "venn")]
        agg = aggs[("even", "venn")]
        assert agg.num_cells == 2
        assert agg.num_jobs == 3
        assert agg.mean_jct == pytest.approx(200.0)

    def test_censoring_flows_through(self):
        m = self._metrics([None], horizon=5_000.0)  # unfinished job
        agg = aggregate_rows([metrics_row("s", "venn", m)])[("s", "venn")]
        assert agg.mean_jct == pytest.approx(5_000.0)  # censored to horizon
        assert agg.completion_rate == 0.0
