"""Tests for the analysis statistics and report formatting."""

from __future__ import annotations

import pytest

from repro.analysis.report import (
    format_series,
    format_speedup_table,
    format_table,
)
from repro.analysis.stats import (
    average_jct_speedup,
    fairness_satisfaction,
    jct_breakdown,
    jct_speedup_by_category,
    jct_speedup_by_demand_percentile,
    summarize_run,
)
from repro.sim.metrics import JobMetrics, SimulationMetrics


def metrics_with_jcts(policy, jcts, categories=None, demands=None, horizon=1e5):
    m = SimulationMetrics(policy=policy, horizon=horizon)
    for i, jct in enumerate(jcts):
        m.jobs[i] = JobMetrics(
            job_id=i,
            name=f"job-{i}",
            category=(categories or {}).get(i, "general"),
            demand_per_round=10,
            num_rounds=2,
            total_demand=(demands or {}).get(i, 20),
            arrival_time=0.0,
            completed=True,
            jct=jct,
            scheduling_delays=[jct * 0.6],
            response_times=[jct * 0.4],
        )
    return m


class TestStats:
    def test_average_jct_speedup(self):
        results = {
            "random": metrics_with_jcts("random", [100.0, 200.0]),
            "venn": metrics_with_jcts("venn", [50.0, 100.0]),
        }
        speedups = average_jct_speedup(results, baseline="random")
        assert speedups["venn"] == pytest.approx(2.0)
        assert speedups["random"] == pytest.approx(1.0)

    def test_speedup_requires_baseline(self):
        with pytest.raises(KeyError):
            average_jct_speedup({"venn": metrics_with_jcts("venn", [1.0])})

    def test_speedup_by_category(self):
        cats = {0: "general", 1: "high_performance"}
        results = {
            "random": metrics_with_jcts("random", [100.0, 400.0], categories=cats),
            "venn": metrics_with_jcts("venn", [100.0, 100.0], categories=cats),
        }
        by_cat = jct_speedup_by_category(results, "venn")
        assert by_cat["high_performance"] == pytest.approx(4.0)
        assert by_cat["general"] == pytest.approx(1.0)

    def test_speedup_by_demand_percentile(self):
        demands = {0: 10, 1: 1000}
        results = {
            "random": metrics_with_jcts("random", [100.0, 1000.0], demands=demands),
            "venn": metrics_with_jcts("venn", [20.0, 1000.0], demands=demands),
        }
        by_pct = jct_speedup_by_demand_percentile(results, "venn", percentiles=(25.0,))
        # The 25th percentile bucket contains only the small job.
        assert by_pct[25.0] == pytest.approx(5.0)

    def test_breakdown_row(self):
        m = metrics_with_jcts("random", [100.0])
        row = jct_breakdown(m, label="x")
        assert row.total == pytest.approx(row.scheduling_delay + row.response_time)
        assert row.label == "x"

    def test_fairness_satisfaction(self):
        m = metrics_with_jcts("venn", [100.0, 900.0])
        solo = {0: 100.0, 1: 100.0}
        # Fair share = 2 * solo = 200: job 0 meets it, job 1 does not.
        assert fairness_satisfaction(m, solo) == pytest.approx(0.5)

    def test_fairness_satisfaction_ignores_unknown_jobs(self):
        m = metrics_with_jcts("venn", [100.0])
        assert fairness_satisfaction(m, {}) == 0.0

    def test_summarize_run_keys(self):
        summary = summarize_run(metrics_with_jcts("venn", [10.0]))
        assert {"average_jct", "completion_rate", "total_aborts"} <= set(summary)


class TestReportFormatting:
    def test_format_table_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [["a", 1.234], ["long-name", 2]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.23" in text
        # All data rows have the same width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_format_table_validates_row_length(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_speedup_table(self):
        text = format_speedup_table(
            {"even": {"venn": 1.88, "fifo": 1.38}}, title="Table 1"
        )
        assert "1.88x" in text and "1.38x" in text and "even" in text

    def test_format_speedup_table_empty(self):
        assert format_speedup_table({}, title="empty") == "empty"

    def test_format_speedup_table_missing_cell(self):
        text = format_speedup_table({"a": {"venn": 2.0}, "b": {"fifo": 1.5}})
        assert "-" in text

    def test_format_series(self):
        text = format_series([1, 2], {"acc": [0.5, 0.6]}, x_label="round")
        assert "round" in text and "acc" in text and "0.600" in text
