"""Tests for the parallel sweep runner.

The core guarantees under test:

* cell seeds derive from the matrix position alone
  (``SeedSequence(root).spawn``) — policies sharing a (scenario, seed) cell
  share an environment, different (scenario, seed) cells never share a
  stream;
* a sweep's JSONL output is byte-identical whatever the worker count;
* the aggregation step folds rows into the documented per-(scenario,
  policy) statistics.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregate import aggregate_rows
from repro.experiments.sweep import (
    SMOKE_SCENARIOS,
    SweepCell,
    plan_cells,
    run_cell,
    run_sweep,
    smoke_base_config,
)

#: A deliberately tiny matrix: 2 scenarios x 1 seed x 1 policy.
TINY_SCENARIOS = ("even", "flash_crowd")
TINY_POLICIES = ("random",)


class TestPlanCells:
    def test_matrix_shape_and_indexing(self):
        cells = plan_cells(TINY_SCENARIOS, 2, ("random", "venn"), root_seed=3)
        assert len(cells) == 2 * 2 * 2
        assert [c.index for c in cells] == list(range(len(cells)))

    def test_policies_share_environment_entropy(self):
        cells = plan_cells(TINY_SCENARIOS, 2, ("random", "venn"), root_seed=3)
        by_env = {}
        for c in cells:
            by_env.setdefault((c.scenario, c.seed_index), set()).add(c.entropy)
        # One entropy per (scenario, seed) pair, shared by both policies...
        assert all(len(v) == 1 for v in by_env.values())
        # ...and no two pairs share an entropy.
        entropies = [next(iter(v)) for v in by_env.values()]
        assert len(set(entropies)) == len(entropies)

    def test_unknown_scenario_fails_in_parent(self):
        with pytest.raises(KeyError):
            plan_cells(("nope",), 1, TINY_POLICIES)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            plan_cells(TINY_SCENARIOS, 0, TINY_POLICIES)
        with pytest.raises(ValueError):
            plan_cells((), 1, TINY_POLICIES)
        with pytest.raises(ValueError):
            plan_cells(("even", "even"), 1, TINY_POLICIES)
        with pytest.raises(ValueError):
            plan_cells(TINY_SCENARIOS, 1, ("venn", "venn"))

    @given(root=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_entropy_depends_only_on_matrix_position(self, root):
        """Adding policies or re-planning must not move any cell's entropy —
        that is what makes results independent of execution layout."""
        one = plan_cells(TINY_SCENARIOS, 2, ("random",), root_seed=root)
        two = plan_cells(TINY_SCENARIOS, 2, ("random", "venn"), root_seed=root)
        entropy_one = {(c.scenario, c.seed_index): c.entropy for c in one}
        entropy_two = {(c.scenario, c.seed_index): c.entropy for c in two}
        for key, value in entropy_one.items():
            assert entropy_two[key] == value


class TestRunSweep:
    @pytest.fixture(scope="class")
    def tiny_cells(self):
        return plan_cells(TINY_SCENARIOS, 1, TINY_POLICIES, root_seed=7)

    def test_rows_are_bit_identical_across_worker_counts(
        self, tiny_cells, tmp_path_factory
    ):
        """The acceptance property: per-cell results do not depend on how
        many workers the sweep fans out over."""
        out1 = tmp_path_factory.mktemp("sweep") / "w1.jsonl"
        out2 = tmp_path_factory.mktemp("sweep") / "w2.jsonl"
        rows1 = run_sweep(tiny_cells, workers=1, out_path=str(out1))
        rows2 = run_sweep(tiny_cells, workers=2, out_path=str(out2))
        assert rows1 == rows2
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_match_serial_run_cell(self, tiny_cells):
        rows = run_sweep(tiny_cells, workers=2)
        expected = [run_cell(c) for c in tiny_cells]
        for row in expected:
            # The runner stamps the fault-tolerance status on every row
            # (failed cells get status: "failed" + error + traceback).
            row["status"] = "ok"
        assert rows == expected

    def test_row_schema(self, tiny_cells):
        row = run_cell(tiny_cells[0])
        expected_fields = {
            "cell",
            "scenario",
            "seed_index",
            "entropy",
            "policy",
            "num_devices",
            "num_jobs",
            "average_jct",
            "p50_jct",
            "p99_jct",
            "completion_rate",
            "sla_attainment",
            "error_rate",
            "total_aborts",
            "job_jcts",
        }
        assert expected_fields <= set(row)
        assert len(row["job_jcts"]) == row["num_jobs"]
        assert row["p50_jct"] <= row["p99_jct"]
        assert json.loads(json.dumps(row)) == row  # JSON-serialisable as-is

    def test_jsonl_roundtrip(self, tiny_cells, tmp_path):
        out = tmp_path / "sweep.jsonl"
        rows = run_sweep(tiny_cells, workers=1, out_path=str(out))
        assert [json.loads(line) for line in out.read_text().splitlines()] == rows

    def test_worker_count_validated(self, tiny_cells):
        with pytest.raises(ValueError):
            run_sweep(tiny_cells, workers=0)


class TestSmokeMatrix:
    def test_smoke_matrix_is_at_least_eight_cells(self):
        cells = plan_cells(SMOKE_SCENARIOS, 2, ("venn",))
        assert len(cells) >= 8

    def test_smoke_base_config_is_small(self):
        cfg = smoke_base_config(seed=1)
        assert cfg.num_devices <= 2000
        assert cfg.num_jobs <= 24

    def test_smoke_cell_runs_multi_tenant_with_policy_kwargs(self):
        """multi_tenant routes num_tiers=6 into the Venn policy; the cell
        must build and run end to end."""
        cells = plan_cells(("multi_tenant",), 1, ("venn",), root_seed=1)
        row = run_cell(cells[0], smoke=True)
        assert row["num_jobs"] == 20
        assert row["average_jct"] > 0


class TestAggregation:
    def _rows(self):
        return [
            {
                "scenario": "s1",
                "policy": "venn",
                "job_jcts": [100.0, 200.0],
                "sla_attainment": 1.0,
                "error_rate": 0.1,
                "completion_rate": 1.0,
                "total_aborts": 2,
            },
            {
                "scenario": "s1",
                "policy": "venn",
                "job_jcts": [300.0, 400.0],
                "sla_attainment": 0.5,
                "error_rate": 0.3,
                "completion_rate": 0.5,
                "total_aborts": 3,
            },
            {
                "scenario": "s2",
                "policy": "venn",
                "job_jcts": [50.0],
                "sla_attainment": 0.0,
                "error_rate": 0.0,
                "completion_rate": 0.0,
                "total_aborts": 0,
            },
        ]

    def test_groups_and_pools_job_jcts(self):
        aggs = aggregate_rows(self._rows())
        assert set(aggs) == {("s1", "venn"), ("s2", "venn")}
        s1 = aggs[("s1", "venn")]
        assert s1.num_cells == 2
        assert s1.num_jobs == 4
        assert s1.mean_jct == pytest.approx(250.0)
        assert s1.p50_jct == pytest.approx(250.0)
        assert s1.sla_attainment == pytest.approx(0.75)
        assert s1.error_rate == pytest.approx(0.2)
        assert s1.total_aborts == 5

    def test_missing_required_field_raises(self):
        with pytest.raises(ValueError, match="missing required field"):
            aggregate_rows([{"policy": "venn"}])

    def test_real_sweep_rows_aggregate(self):
        cells = plan_cells(TINY_SCENARIOS, 1, TINY_POLICIES, root_seed=9)
        rows = run_sweep(cells, workers=1)
        aggs = aggregate_rows(rows)
        assert set(aggs) == {(s, "random") for s in TINY_SCENARIOS}
        for agg in aggs.values():
            assert agg.num_cells == 1
            assert agg.mean_jct > 0
