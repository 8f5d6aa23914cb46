"""Tests for the workload scenario generator (§5.1, §5.4)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.workloads import (
    BIAS_SCENARIOS,
    DEMAND_SCENARIOS,
    WorkloadConfig,
    WorkloadGenerator,
)


def named_workload(scenario, num_jobs=50, seed=None, **overrides):
    """A workload of one named scenario; a bias scenario draws the even
    demand distribution (§5.4)."""
    if scenario in BIAS_SCENARIOS:
        overrides.update(scenario="even", category_bias=scenario)
    else:
        overrides.update(scenario=scenario)
    config = WorkloadConfig(num_jobs=num_jobs, **overrides)
    return WorkloadGenerator(config, seed=seed).generate()


class TestWorkloadConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(scenario="nonsense")

    def test_unknown_bias_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(category_bias="nonsense")

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(deadline_min=600, deadline_max=300)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(rounds_scale=0)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize(
        "name", ["mean_interarrival", "deadline_min", "deadline_max"]
    )
    def test_non_finite_times_are_rejected(self, name, value):
        # A NaN mean inter-arrival fails ``> 0`` and used to put every
        # arrival at 0.0; an infinite deadline used to fail only in
        # ``generate``.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            WorkloadConfig(**{name: value})


class TestWorkloadGenerator:
    def _workload(self, **kwargs):
        defaults = dict(num_jobs=30, max_rounds=5, max_demand=50)
        defaults.update(kwargs)
        return WorkloadGenerator(WorkloadConfig(**defaults), seed=3).generate()

    def test_generates_requested_number_of_jobs(self):
        wl = self._workload()
        assert len(wl) == 30
        assert len({j.job_id for j in wl.jobs}) == 30

    def test_job_fields_respect_caps_and_minimums(self):
        cfg = WorkloadConfig(
            num_jobs=40, max_rounds=6, max_demand=25, min_rounds=2, min_demand=8
        )
        wl = WorkloadGenerator(cfg, seed=1).generate()
        for job in wl.jobs:
            assert 2 <= job.num_rounds <= 6
            assert 8 <= job.demand_per_round <= 25
            assert cfg.deadline_min <= job.round_deadline <= cfg.deadline_max

    def test_arrivals_are_sorted_and_poisson_like(self):
        wl = self._workload(mean_interarrival=1800.0, num_jobs=100)
        arrivals = [j.arrival_time for j in wl.jobs]
        assert arrivals == sorted(arrivals)
        gaps = np.diff([0.0] + arrivals)
        assert abs(float(np.mean(gaps)) - 1800.0) / 1800.0 < 0.5

    def test_zero_interarrival_means_simultaneous(self):
        wl = self._workload(mean_interarrival=0.0)
        assert all(j.arrival_time == 0.0 for j in wl.jobs)

    def test_categories_cover_all_four_when_unbiased(self):
        wl = self._workload(num_jobs=200)
        seen = set(wl.categories.values())
        assert seen == {"general", "compute_rich", "memory_rich", "high_performance"}

    def test_bias_scenario_concentrates_focal_category(self):
        cfg = WorkloadConfig(
            num_jobs=200, scenario="even", category_bias="compute_heavy"
        )
        wl = WorkloadGenerator(cfg, seed=2).generate()
        focal = [j for j in wl.jobs if wl.categories[j.job_id] == "compute_rich"]
        share = len(focal) / len(wl)
        assert 0.35 < share < 0.65  # ~50% focal

    def test_deadline_grows_with_demand(self):
        wl = self._workload(num_jobs=100, max_demand=60)
        jobs = sorted(wl.jobs, key=lambda j: j.demand_per_round)
        assert jobs[0].round_deadline <= jobs[-1].round_deadline

    def test_small_scenario_has_smaller_total_demand_than_large(self):
        small = named_workload("small", num_jobs=60, seed=5, max_rounds=0, max_demand=0)
        large = named_workload("large", num_jobs=60, seed=5, max_rounds=0, max_demand=0)
        assert small.total_demand < large.total_demand

    def test_low_scenario_has_smaller_round_demand_than_high(self):
        low = named_workload("low", num_jobs=60, seed=5, max_demand=0)
        high = named_workload("high", num_jobs=60, seed=5, max_demand=0)
        mean_low = np.mean([j.demand_per_round for j in low.jobs])
        mean_high = np.mean([j.demand_per_round for j in high.jobs])
        assert mean_low < mean_high

    def test_determinism_under_seed(self):
        a = named_workload("even", num_jobs=20, seed=11)
        b = named_workload("even", num_jobs=20, seed=11)
        assert [j.demand_per_round for j in a.jobs] == [
            j.demand_per_round for j in b.jobs
        ]
        assert [j.arrival_time for j in a.jobs] == [j.arrival_time for j in b.jobs]

    @pytest.mark.parametrize("scenario", DEMAND_SCENARIOS + tuple(BIAS_SCENARIOS))
    def test_every_named_scenario_generates(self, scenario):
        wl = named_workload(scenario, num_jobs=10, seed=1)
        assert len(wl) == 10

    @given(
        num_jobs=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=1000),
        scenario=st.sampled_from(DEMAND_SCENARIOS),
    )
    @settings(max_examples=30, deadline=None)
    def test_workload_invariants(self, num_jobs, seed, scenario):
        """Property: every generated job is valid and consistently categorised."""
        wl = named_workload(scenario, num_jobs=num_jobs, seed=seed)
        assert len(wl) == num_jobs
        for job in wl.jobs:
            assert job.demand_per_round > 0
            assert job.num_rounds > 0
            assert job.arrival_time >= 0.0
            assert wl.categories[job.job_id] == job.requirement.name
