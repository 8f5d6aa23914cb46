"""Tests for the job demand trace (Figure 8b)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.job_trace import (
    JobDemandEntry,
    JobDemandTrace,
    JobTraceConfig,
    JobTraceGenerator,
)


class TestJobTraceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobTraceConfig(rounds_median=0)
        with pytest.raises(ValueError):
            JobTraceConfig(rounds_min=0)
        with pytest.raises(ValueError):
            JobTraceConfig(demand_cap=5, demand_min=10)


class TestJobTraceGenerator:
    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            JobTraceGenerator(seed=0).generate(0)

    def test_entries_within_configured_bounds(self):
        cfg = JobTraceConfig()
        trace = JobTraceGenerator(cfg, seed=1).generate(500)
        for e in trace.entries:
            assert cfg.rounds_min <= e.num_rounds <= cfg.rounds_cap
            assert cfg.demand_min <= e.demand_per_round <= cfg.demand_cap
            assert e.application in cfg.applications

    def test_heavy_tail_reaches_large_values(self):
        """The trace must contain both small and very large jobs, like Fig 8b."""
        trace = JobTraceGenerator(seed=2).generate(800)
        rounds = np.array([e.num_rounds for e in trace.entries])
        demand = np.array([e.demand_per_round for e in trace.entries])
        assert rounds.max() > 5 * np.median(rounds)
        assert demand.max() > 5 * np.median(demand)

    def test_determinism(self):
        a = JobTraceGenerator(seed=3).generate(50)
        b = JobTraceGenerator(seed=3).generate(50)
        assert a.entries == b.entries


class TestJobDemandTrace:
    def _trace(self):
        entries = [
            JobDemandEntry(0, num_rounds=10, demand_per_round=10),    # total 100
            JobDemandEntry(1, num_rounds=100, demand_per_round=50),   # total 5000
            JobDemandEntry(2, num_rounds=20, demand_per_round=200),   # total 4000
            JobDemandEntry(3, num_rounds=5, demand_per_round=20),     # total 100
        ]
        return JobDemandTrace(entries=entries)

    def test_total_demand(self):
        assert JobDemandEntry(0, 10, 10).total_demand == 100

    def test_means(self):
        trace = self._trace()
        assert trace.mean_total_demand == pytest.approx((100 + 5000 + 4000 + 100) / 4)
        assert trace.mean_demand_per_round == pytest.approx((10 + 50 + 200 + 20) / 4)
        assert trace.mean_rounds == pytest.approx((10 + 100 + 20 + 5) / 4)

    def test_empty_trace_means_are_zero(self):
        empty = JobDemandTrace()
        assert empty.mean_total_demand == 0.0
        assert empty.mean_demand_per_round == 0.0
        assert len(empty) == 0

    def test_scenario_pools_partition_on_total_demand(self):
        trace = self._trace()
        small = {e.entry_id for e in trace.below_average_total()}
        large = {e.entry_id for e in trace.above_average_total()}
        assert small == {0, 3}
        assert large == {1, 2}
        assert small | large == {0, 1, 2, 3}
        assert small & large == set()

    def test_scenario_pools_partition_on_round_demand(self):
        trace = self._trace()
        low = {e.entry_id for e in trace.below_average_per_round()}
        high = {e.entry_id for e in trace.above_average_per_round()}
        assert low == {0, 1, 3}
        assert high == {2}

    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=20, deadline=None)
    def test_scenario_pools_cover_trace(self, seed):
        """Property: small/large pools partition the trace, as do low/high."""
        trace = JobTraceGenerator(seed=seed).generate(100)
        assert len(trace.below_average_total()) + len(trace.above_average_total()) == 100
        assert (
            len(trace.below_average_per_round())
            + len(trace.above_average_per_round())
            == 100
        )
