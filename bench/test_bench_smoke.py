"""Tier-1 canary for the benchmark: the program still offers the surface
``bench/`` depends on, and the benchmark still says what BENCHMARK.json says.

Repeats run in this process (``harness.spawn`` swapped for a direct call)
to spare an interpreter start each; one test goes through real subprocesses.
"""

import copy
import json
import re

import pytest

from bench import ROOT, harness
from bench.__main__ import DEFAULT_SECONDS, main
from bench.metrics import END_TO_END, PER_LAYER
from bench.worker import run_repeat
from bench.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture(scope="module")
def records():
    """Raw repeat records of the ``traced_smoke`` runs, by (workload, mode)."""
    return {}


@pytest.fixture(scope="module")
def traced_smoke(records):
    """Traced pass (untraced + spans + profile [+ twin]) of the cheapest day
    workload and of the sweep, at smoke scale."""

    def in_process(name, seed, mode, smoke, src=None):
        record = json.loads(json.dumps(run_repeat(name, seed, mode, smoke)))
        records[name, mode] = record
        return record

    patch = pytest.MonkeyPatch()
    patch.setattr(harness, "spawn", in_process)
    try:
        return {
            name: harness.run_workload(
                name, SEED, 0, timed=False, traced=True, smoke=True
            )
            for name in ("churn_10k", "sweep_paper")
        }
    finally:
        patch.undo()


def test_benchmark_json_is_the_tables():
    assert SPEC["run_seconds"] == DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    for name in list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_smoke_emits_exactly_the_named_metrics(traced_smoke):
    for name, result in traced_smoke.items():
        assert result["failures"] == [], name
        assert list(result["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert list(result["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        assert all(m["value"] > 0 for m in result["end_to_end"].values()), name
    # untraced + spans + profile + twin; the sweep adds one op per cell
    assert traced_smoke["churn_10k"]["attempted"] == 4
    assert traced_smoke["sweep_paper"]["attempted"] == 3 + 15


def test_layers_a_workload_exercises_are_not_zero(traced_smoke):
    day = traced_smoke["churn_10k"]["per_layer"]
    sweep = traced_smoke["sweep_paper"]["per_layer"]
    for name in ("traces.availability_s", "sim.run_s", "core.assign_calls",
                 "core.on_response_s", "core.plan_incremental_updates",
                 "sim.engine.calls", "core.scheduler.self_s", "profile.calls_total"):
        assert day[name]["value"] > 0, name
    for name in ("experiments.env_build_s", "experiments.parallel_efficiency",
                 "analysis.jct_speedup_vs_random", "sim.engine.calls"):
        assert sweep[name]["value"] > 0, name
    assert sweep["core.assign_calls"]["value"] == 0


def test_fresh_processes_repeat_sim_metrics_and_call_counts(traced_smoke):
    first, second = (harness.spawn("churn_10k", SEED, "profile", True) for _ in range(2))
    assert "error" not in first, first
    assert first["digests"] == second["digests"] == traced_smoke["churn_10k"]["digests"]
    assert first["sim"] == second["sim"]
    assert first["profile_calls"] == second["profile_calls"]
    assert {k: v["calls"] for k, v in first["profile"].items()} == {
        k: v["calls"] for k, v in second["profile"].items()
    }


def test_failed_op_shows_in_the_ledger_and_the_exit_code(
    traced_smoke, records, monkeypatch, capsys
):
    def twin_disagrees(name, seed, mode, smoke, src=None):
        if mode == "twin":
            return {"mode": mode, "digests": {"fast": "a/1", "reference": "b/1"}}
        return copy.deepcopy(records[name, mode])

    monkeypatch.setattr(harness, "spawn", twin_disagrees)
    code = main(["--workload", "churn_10k", "--trace", "1", "--smoke"])
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert code != 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 4, 1)
    assert any(line.startswith("churn_10k failed_share 0.25 ") for line in lines)
