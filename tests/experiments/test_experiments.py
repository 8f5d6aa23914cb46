"""Integration tests for the experiment drivers.

These use deliberately tiny configurations so that the full pipeline — trace
generation, environment building, simulation under several policies and the
table/figure post-processing — runs in a few seconds while still exercising
the same code paths as the paper-scale runs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.ablation import estimate_solo_jct, figure13_num_tiers
from repro.experiments.accuracy import (
    figure4_contention_accuracy,
    final_accuracy_by_policy,
)
from repro.experiments.breakdown import figure5_jct_breakdown
from repro.experiments.config import ExperimentConfig, get_config, quick_config
from repro.experiments.endtoend import (
    averaged_speedups,
    run_policies,
    run_scenario,
    table1_average_jct,
)
from repro.experiments.environment import build_environment
from repro.experiments.figures import (
    build_loaded_scheduler,
    figure10_overhead,
    figure2a_availability_curve,
    figure3_toy_example,
    figure8a_category_shares,
    figure8b_job_demand_stats,
)
from repro.traces.device_trace import DiurnalConfig
from repro.traces.workloads import WorkloadConfig
from repro.sim.engine import SimulationConfig


def tiny_config(seed: int = 3) -> ExperimentConfig:
    """A configuration small enough for CI-speed integration tests."""
    horizon = 8 * 3600.0
    return ExperimentConfig(
        name="tiny",
        seed=seed,
        num_devices=250,
        num_jobs=6,
        horizon=horizon,
        workload=WorkloadConfig(
            max_rounds=2,
            max_demand=12,
            min_rounds=1,
            min_demand=5,
            rounds_scale=0.002,
            demand_scale=0.05,
            mean_interarrival=300.0,
            deadline_min=1200.0,
            deadline_max=2400.0,
            base_task_duration=40.0,
        ),
        availability=DiurnalConfig(horizon=horizon),
        simulation=SimulationConfig(horizon=horizon),
    )


class TestConfigPresets:
    @pytest.mark.parametrize("name", ["quick", "default", "large"])
    def test_presets_construct(self, name):
        cfg = get_config(name, seed=1)
        assert cfg.workload.num_jobs == cfg.num_jobs
        assert cfg.simulation.horizon == cfg.horizon
        assert cfg.availability.horizon == cfg.horizon

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_config("gigantic")

    def test_with_scenario_and_jobs(self):
        cfg = quick_config().with_scenario("high").with_jobs(5)
        assert cfg.workload.scenario == "high"
        assert cfg.num_jobs == 5
        assert cfg.workload.num_jobs == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(quick_config(), num_devices=0)


class TestEnvironment:
    def test_build_environment_consistency(self):
        env = build_environment(tiny_config())
        assert env.num_devices == 250
        assert env.num_jobs == 6
        device_ids = {d.device_id for d in env.devices}
        assert {s.device_id for s in env.availability.sessions} <= device_ids
        assert set(env.workload.categories) == {j.job_id for j in env.workload.jobs}

    def test_environment_deterministic(self):
        a = build_environment(tiny_config(seed=9))
        b = build_environment(tiny_config(seed=9))
        assert [d.cpu_score for d in a.devices] == [d.cpu_score for d in b.devices]
        assert [j.demand_per_round for j in a.workload.jobs] == [
            j.demand_per_round for j in b.workload.jobs
        ]


class TestEndToEnd:
    def test_run_policies_and_speedups(self):
        env = build_environment(tiny_config())
        results = run_policies(env, ("random", "venn"))
        assert set(results) == {"random", "venn"}
        for metrics in results.values():
            assert len(metrics.jobs) == 6
            assert metrics.average_jct > 0
        speedups = averaged_speedups(tiny_config(), "even", ("random", "venn"))
        assert set(speedups) == {"venn"}
        assert speedups["venn"] > 0

    def test_run_scenario_accepts_bias_names(self):
        results = run_scenario(tiny_config(), "compute_heavy", ("random",))
        assert "random" in results

    def test_run_scenario_rejects_unknown(self):
        with pytest.raises(ValueError):
            run_scenario(tiny_config(), "nonsense", ("random",))

    def test_table1_structure(self):
        table = table1_average_jct(
            tiny_config(), scenarios=("even",), policies=("random", "venn")
        )
        assert set(table) == {"even"}
        assert set(table["even"]) == {"venn"}


class TestCharacterisationFigures:
    def test_figure2a_curve(self):
        times, frac = figure2a_availability_curve(num_devices=200, resolution=3600.0)
        assert len(times) == len(frac)
        assert (frac >= 0).all() and (frac <= 1.0).all()
        assert frac.max() > 0

    def test_figure8a_shares(self):
        shares = figure8a_category_shares(num_devices=300)
        assert shares["general"] == pytest.approx(1.0)
        assert 0 < shares["high_performance"] < 1

    def test_figure8b_stats(self):
        stats = figure8b_job_demand_stats(num_jobs=100)
        assert stats["max_rounds"] >= stats["mean_rounds"]
        assert stats["max_participants"] >= stats["mean_participants"]

    def test_figure3_toy_example_matches_paper_ordering(self):
        toy = figure3_toy_example()
        # Paper: random 12, SRSF 11, optimal 9.3.  Venn attains the optimum.
        assert toy.venn_jct == pytest.approx(toy.optimal_jct, rel=1e-6)
        assert toy.optimal_jct < toy.srsf_jct <= toy.random_jct + 0.5
        assert toy.optimal_jct == pytest.approx(9.33, abs=0.05)
        assert toy.srsf_jct == pytest.approx(11.0, abs=0.01)

    def test_figure10_scheduler_overhead_small(self):
        overhead = figure10_overhead(job_counts=(50,), group_counts=(10,), repeats=2)
        latency = overhead[(50, 10)]
        assert 0 < latency < 1000.0  # milliseconds

    def test_build_loaded_scheduler(self):
        sched = build_loaded_scheduler(num_jobs=30, num_groups=5)
        assert len(sched.jobs) == 30
        plan = sched.rebuild_plan(now=10.0)
        assert len(plan.group_order) == 5


class TestAnalysisExperiments:
    def test_figure5_breakdown(self):
        rows = figure5_jct_breakdown(tiny_config(), job_counts=(3,), policy="random")
        assert 3 in rows
        assert rows[3].total >= 0

    def test_figure13_tiers(self):
        out = figure13_num_tiers(tiny_config(), tier_counts=(1, 2), scenario="even")
        assert set(out) == {1, 2}
        assert all(v > 0 for v in out.values())

    def test_estimate_solo_jct_positive_and_monotone(self):
        env = build_environment(tiny_config())
        jobs = sorted(env.workload.jobs, key=lambda j: j.total_demand)
        small, large = jobs[0], jobs[-1]
        est_small = estimate_solo_jct(small, env)
        est_large = estimate_solo_jct(large, env)
        assert est_small > 0
        if large.total_demand > 2 * small.total_demand and (
            large.requirement.name == small.requirement.name
        ):
            assert est_large > est_small

    def test_figure4_contention_accuracy(self):
        curves = figure4_contention_accuracy(
            job_counts=(1, 4), num_rounds=4, num_clients=40, clients_per_round=8
        )
        assert set(curves) == {1, 4}
        assert all(len(v) == 4 for v in curves.values())
        assert final_accuracy_by_policy(curves)[1] > 0


class TestEnginePlumbing:
    def test_nested_simulation_config_survives_copies(self):
        """The engine and the checkpoint interval are chosen on the nested
        ``SimulationConfig`` alone, and every ``replace``-based copy keeps
        them (``ExperimentConfig`` used to overwrite both from shadow
        fields of its own)."""
        from dataclasses import replace

        from repro.experiments.config import ExperimentConfig
        from repro.sim.engine import SimulationConfig

        for fleet in (False, True):
            cfg = ExperimentConfig(
                simulation=SimulationConfig(
                    vectorized_dispatch=fleet, checkpoint_interval=5
                )
            )
            copies = (
                cfg,
                cfg.with_seed(99),
                cfg.with_scenario("even", category_bias="compute_heavy"),
                cfg.with_jobs(3),
                replace(cfg, horizon=3600.0),
            )
            for copy in copies:
                assert copy.simulation.vectorized_dispatch is fleet
                assert copy.simulation.checkpoint_interval == 5
            # The derived fields still follow the top-level knobs.
            assert copies[1].simulation.seed == copies[1].seed_for("simulation")
            assert copies[1].simulation.seed != cfg.simulation.seed
            assert copies[4].simulation.horizon == 3600.0

    def test_run_policy_honours_engine_knob(self):
        """endtoend.run_policy inherits the engine choice from the config;
        fleet and single-queue runs agree bit-for-bit."""
        from dataclasses import replace

        from repro.experiments.config import quick_config
        from repro.experiments.endtoend import run_policy
        from repro.experiments.environment import build_environment

        small = replace(quick_config(seed=3).with_jobs(4), num_devices=200)
        env_single = build_environment(
            replace(
                small,
                simulation=replace(small.simulation, vectorized_dispatch=False),
            )
        )
        env_fleet = build_environment(small)
        single = run_policy(env_single, "venn")
        fleet = run_policy(env_fleet, "venn")
        assert {j: m.jct for j, m in single.jobs.items()} == {
            j: m.jct for j, m in fleet.jobs.items()
        }
        assert single.total_checkins == fleet.total_checkins

    def test_run_policy_reaches_the_plan_oracle_through_policy_kwargs(self):
        """The experiment config holds no plan-maintenance field: the
        from-scratch oracle is a Venn keyword, and it decides as the
        incremental default does."""
        from dataclasses import replace

        from repro.experiments.config import quick_config
        from repro.experiments.endtoend import run_policy
        from repro.experiments.environment import build_environment
        from repro.resilience import metrics_digest

        env = build_environment(
            replace(quick_config(seed=3).with_jobs(4), num_devices=200)
        )
        full = run_policy(env, "venn", {"plan_maintenance": "full"})
        incremental = run_policy(env, "venn")
        assert full.plan_maintenance["incremental_updates"] == 0
        assert incremental.plan_maintenance["incremental_updates"] > 0
        assert metrics_digest(full) == metrics_digest(incremental)
