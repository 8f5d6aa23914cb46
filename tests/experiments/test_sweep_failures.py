"""Fault-tolerant sweep runner: one broken cell must not sink the sweep.

Covers the failed-row contract (provenance + error + traceback, exactly
those keys), one run per raising cell, aggregation skipping failed rows,
worker-count byte-identity *with* a failing cell in the matrix, and the CLI
exit code.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.aggregate import aggregate_rows
from repro.experiments import sweep
from repro.experiments.sweep import plan_cells, run_sweep

TINY_SCENARIOS = ("even", "flash_crowd")
TINY_POLICIES = ("random",)

#: Every key of a failed row: provenance, status, error and traceback.
FAILED_ROW_KEYS = {
    "cell", "scenario", "policy", "seed_index", "entropy",
    "status", "error", "traceback",
}


@pytest.fixture(scope="module")
def tiny_cells():
    return plan_cells(TINY_SCENARIOS, 1, TINY_POLICIES, root_seed=7)


class TestFailedRows:
    def test_injected_crash_yields_failed_row_others_complete(self, tiny_cells):
        rows = run_sweep(tiny_cells, workers=1, inject_crash_cells=(0,))
        assert len(rows) == len(tiny_cells)
        failed, ok = rows[0], rows[1]
        assert failed["status"] == "failed"
        assert failed["cell"] == 0
        assert failed["scenario"] == tiny_cells[0].scenario
        assert failed["policy"] == tiny_cells[0].policy
        assert failed["entropy"] == tiny_cells[0].entropy
        assert "RuntimeError" in failed["error"]
        assert "injected sweep-cell crash" in failed["traceback"]
        assert set(failed) == FAILED_ROW_KEYS
        assert ok["status"] == "ok"
        assert ok["average_jct"] > 0

    def test_failed_row_is_json_serialisable(self, tiny_cells):
        rows = run_sweep(tiny_cells, workers=1, inject_crash_cells=(0,))
        assert json.loads(json.dumps(rows[0])) == rows[0]

    def test_a_raising_cell_runs_once(self, tiny_cells, monkeypatch):
        """A cell is a deterministic function of its inputs, so it is not
        retried: a retry would raise the same exception again."""
        calls = []

        def raising(cell, preset="quick", smoke=False):
            calls.append(cell.index)
            raise ValueError("boom")

        monkeypatch.setattr(sweep, "run_cell", raising)
        rows = run_sweep(tiny_cells, workers=1)
        assert calls == [cell.index for cell in tiny_cells]
        assert [row["error"] for row in rows] == ["ValueError: boom"] * 2

    def test_unknown_crash_cell_rejected(self, tiny_cells):
        with pytest.raises(ValueError, match="unknown cell"):
            run_sweep(tiny_cells, inject_crash_cells=(99,))


class TestWorkerIndependence:
    def test_bytes_identical_across_worker_counts_with_a_crash(
        self, tiny_cells, tmp_path
    ):
        """The acceptance property holds even when a cell fails: the failed
        row's bytes must not depend on whether it ran in a pool worker."""
        out1, out2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        rows1 = run_sweep(
            tiny_cells, workers=1, out_path=str(out1), inject_crash_cells=(1,)
        )
        rows2 = run_sweep(
            tiny_cells, workers=2, out_path=str(out2), inject_crash_cells=(1,)
        )
        assert rows1 == rows2
        assert out1.read_bytes() == out2.read_bytes()

    def test_incremental_flush_preserves_completed_rows(
        self, tiny_cells, tmp_path
    ):
        out = tmp_path / "sweep.jsonl"
        run_sweep(tiny_cells, workers=1, out_path=str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == len(tiny_cells)
        # Sorted keys per line: the byte-reproducibility contract.
        for line in lines:
            row = json.loads(line)
            assert line == json.dumps(row, sort_keys=True)


class TestAggregationSkipsFailures:
    def test_failed_rows_excluded(self, tiny_cells):
        rows = run_sweep(tiny_cells, workers=1, inject_crash_cells=(0,))
        aggregates = aggregate_rows(rows)
        crashed = (tiny_cells[0].scenario, tiny_cells[0].policy)
        survived = (tiny_cells[1].scenario, tiny_cells[1].policy)
        assert crashed not in aggregates
        assert survived in aggregates

    def test_partial_scenario_keeps_surviving_seeds(self):
        cells = plan_cells(("even",), 2, TINY_POLICIES, root_seed=7)
        rows = run_sweep(cells, workers=1, inject_crash_cells=(1,))
        aggregates = aggregate_rows(rows)
        agg = aggregates[("even", "random")]
        assert agg.num_cells == 1


class TestCli:
    def test_exit_code_one_and_summary_on_failure(self, capsys, tmp_path):
        rc = sweep.main(
            [
                "--scenarios", "even",
                "--policies", "random",
                "--num-seeds", "1",
                "--inject-crash-cell", "0",
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "1 cell(s) failed" in captured.err

    def test_removed_retry_flag_is_an_error(self, capsys):
        """A script still passing ``--max-cell-retries`` fails loudly
        rather than running with the flag ignored."""
        with pytest.raises(SystemExit) as exc:
            sweep.main(["--smoke", "--max-cell-retries", "2"])
        assert exc.value.code == 2
        assert "--max-cell-retries" in capsys.readouterr().err

    def test_exit_code_zero_without_failures(self, capsys):
        rc = sweep.main(
            ["--scenarios", "even", "--policies", "random", "--num-seeds", "1"]
        )
        assert rc == 0
