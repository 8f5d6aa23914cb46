"""The paper's qualitative claims, gated at the ``quick`` preset (seed 7).

One test per table/figure claim the evaluation makes about *direction* —
Venn beats random matching under contention, scheduling delay grows with
the number of jobs, contention costs accuracy — at a scale where the whole
file simulates in a few seconds.  Absolute ratios differ from the paper's
(800 devices, 16 jobs, one day); the shape should not.

Table 1's scenario × policy matrix is simulated once per session and every
table or figure that reads the same scenario reads those runs: the quick
preset *is* the 16-job ``even`` workload, so Fig. 5 and Fig. 12 take their
16-job point from it, and Tables 2/3, Fig. 11 and Fig. 13 their baselines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import (
    average_jct_speedup,
    jct_breakdown,
    jct_speedup_by_category,
    jct_speedup_by_demand_percentile,
)
from repro.experiments.accuracy import (
    figure4_contention_accuracy,
    figure9_accuracy_over_time,
    final_accuracy_by_policy,
)
from repro.experiments.config import quick_config
from repro.experiments.endtoend import run_policies, run_scenario
from repro.experiments.environment import build_environment
from repro.experiments.figures import (
    figure10_overhead,
    figure2a_availability_curve,
    figure2b_capacity_heterogeneity,
    figure8b_job_demand_stats,
)
from repro.resilience import metrics_digest
from repro.traces.workloads import BIAS_SCENARIOS, DEMAND_SCENARIOS

POLICIES = ("random", "fifo", "srsf", "venn")


@pytest.fixture(scope="session")
def config():
    return quick_config(seed=7)


@pytest.fixture(scope="session")
def demand_runs(config):
    """``scenario -> policy -> SimulationMetrics`` for Table 1's matrix."""
    return {s: run_scenario(config, s, POLICIES) for s in DEMAND_SCENARIOS}


@pytest.fixture(scope="session")
def job_count_runs(config, demand_runs):
    """``num_jobs -> policy -> SimulationMetrics`` at 8, 16 and 24 jobs."""
    runs = {config.num_jobs: demand_runs["even"]}
    for n in (8, 24):
        env = build_environment(config.with_jobs(n))
        runs[n] = run_policies(env, ("random", "venn"))
    return runs


def speedup(baseline, metrics) -> float:
    return baseline.average_jct / metrics.average_jct


class TestSchemaAndDeterminism:
    def test_every_cell_ran_every_job(self, config, demand_runs):
        assert set(demand_runs) == set(DEMAND_SCENARIOS)
        for scenario, results in demand_runs.items():
            assert tuple(results) == POLICIES
            for policy, metrics in results.items():
                assert len(metrics.jobs) == config.num_jobs, (scenario, policy)
                assert metrics.average_jct > 0
                assert metrics.total_checkins > 0

    def test_same_seed_same_metrics(self, config, demand_runs):
        again = run_scenario(config, "high", ("venn",))["venn"]
        assert metrics_digest(again) == metrics_digest(demand_runs["high"]["venn"])

    def test_scenarios_differ(self, demand_runs):
        digests = {metrics_digest(r["venn"]) for r in demand_runs.values()}
        assert len(digests) == len(DEMAND_SCENARIOS)


class TestTable1:
    """Average-JCT improvement over random matching per workload."""

    def test_venn_beats_random_on_every_scenario(self, demand_runs):
        for scenario, results in demand_runs.items():
            assert average_jct_speedup(results)["venn"] > 1.0, scenario

    def test_venn_is_best_or_tied_on_at_least_half(self, demand_runs):
        wins = 0
        for results in demand_runs.values():
            row = average_jct_speedup(results)
            del row["random"]
            wins += row["venn"] >= max(row.values()) - 0.1
        assert wins >= len(demand_runs) / 2


class TestTables2And3:
    """Who benefits: the smallest jobs and the scarcest requirements."""

    SCENARIOS = ("even", "low", "high")

    def test_small_jobs_benefit_at_least_as_much(self, demand_runs):
        favourable = 0
        for scenario in self.SCENARIOS:
            row = jct_speedup_by_demand_percentile(
                demand_runs[scenario], "venn", percentiles=(25.0, 50.0, 75.0)
            )
            assert row and all(v > 0 for v in row.values()), scenario
            favourable += row.get(25.0, 0) >= row.get(75.0, 0) * 0.8
        assert favourable >= len(self.SCENARIOS) / 2

    def test_scarce_categories_benefit_at_least_as_much(self, demand_runs):
        favourable = 0
        for scenario in self.SCENARIOS:
            row = jct_speedup_by_category(demand_runs[scenario], "venn")
            assert row and all(v > 0 for v in row.values()), scenario
            scarce = max((v for k, v in row.items() if k != "general"), default=0.0)
            favourable += scarce >= row.get("general", 0.0) * 0.8
        assert favourable >= len(self.SCENARIOS) / 2


class TestTable4:
    def test_venn_beats_random_on_every_biased_workload(self, config):
        assert set(BIAS_SCENARIOS) == {
            "general_heavy",
            "compute_heavy",
            "memory_heavy",
            "resource_heavy",
        }
        for bias in BIAS_SCENARIOS:
            results = run_scenario(config, bias, ("random", "venn"))
            assert average_jct_speedup(results)["venn"] > 1.0, bias


class TestContention:
    def test_fig5_scheduling_delay_grows_with_contention(self, job_count_runs):
        low = jct_breakdown(job_count_runs[8]["random"])
        high = jct_breakdown(job_count_runs[16]["random"])
        assert low.total > 0 and high.total > 0
        assert high.scheduling_delay >= low.scheduling_delay * 0.8

    def test_fig12_venn_beats_random_at_the_highest_job_count(self, job_count_runs):
        assert average_jct_speedup(job_count_runs[24])["venn"] > 1.0


class TestVennComponents:
    @pytest.mark.parametrize("scenario", ["low", "high"])
    def test_fig11_matching_never_costs_more_than_a_tenth(
        self, config, demand_runs, scenario
    ):
        baseline = demand_runs[scenario]["random"]
        wo_match = run_scenario(config, scenario, ("venn_wo_match",))["venn_wo_match"]
        assert speedup(baseline, demand_runs[scenario]["venn"]) >= (
            speedup(baseline, wo_match) * 0.9
        )

    def test_fig13_more_tiers_are_not_substantially_worse(self, config, demand_runs):
        baseline = demand_runs["low"]["random"]
        by_tiers = {
            v: speedup(
                baseline,
                run_scenario(
                    config, "low", ("venn",), policy_kwargs={"venn": {"num_tiers": v}}
                )["venn"],
            )
            for v in (1, 2, 3, 4)
        }
        assert max(by_tiers[2], by_tiers[3], by_tiers[4]) >= by_tiers[1] * 0.85


class TestAccuracy:
    def test_fig4_contention_costs_accuracy(self):
        curves = figure4_contention_accuracy(
            job_counts=(1, 5, 10, 20),
            num_rounds=15,
            num_clients=200,
            clients_per_round=20,
        )
        assert set(curves) == {1, 5, 10, 20}
        assert curves[1][-1] >= curves[20][-1] - 0.02

    def test_fig9_policy_changes_when_not_what_is_learnt(self, config):
        _times, curves = figure9_accuracy_over_time(
            config, policies=("fifo", "srsf", "venn"), num_time_points=13
        )
        finals = final_accuracy_by_policy(curves)
        assert set(finals) == {"fifo", "srsf", "venn"}
        assert max(finals.values()) - min(finals.values()) < 0.1
        assert np.mean(curves["venn"]) >= np.mean(curves["fifo"]) - 0.05


class TestTraces:
    def test_fig2a_diurnal_swing(self):
        _times, fraction = figure2a_availability_curve(
            num_devices=1000, resolution=1800.0
        )
        steady = fraction[len(fraction) // 4 :]
        peak, trough = float(steady.max()), float(steady[steady > 0].min())
        assert peak / trough > 1.3

    def test_fig2b_small_models_qualify_more_devices(self):
        shares = figure2b_capacity_heterogeneity(num_devices=2000)
        assert shares["mobilenet"] > shares["videosr"]

    def test_fig8b_demand_trace_stays_inside_the_paper_ranges(self):
        stats = figure8b_job_demand_stats(num_jobs=400)
        assert stats["max_rounds"] <= 4000
        assert stats["max_participants"] <= 1500


def test_fig10_plan_rebuild_under_a_second_at_the_largest_grid_point():
    (latency_ms,) = figure10_overhead(
        job_counts=(1000,), group_counts=(100,), repeats=1
    ).values()
    assert 0 < latency_ms < 1000.0
