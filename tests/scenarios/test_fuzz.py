"""Small-budget run of the scenario fuzzer as a regular test, plus CLI
smoke coverage.  The CI ``scenario-fuzz`` job runs the same harness with a
bigger budget; this keeps the fuzzer itself from rotting between runs."""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

import repro.scenarios.fuzz as fuzz_module
from repro.experiments.config import quick_config
from repro.experiments.endtoend import run_policy
from repro.scenarios import scenario_names
from repro.scenarios.fuzz import (
    base_configs,
    check_scenario,
    check_worker_identity,
    main,
    scenario_specs,
)
from repro.scenarios.registry import get_scenario


@given(spec=scenario_specs(), base=base_configs())
@settings(
    max_examples=5,
    deadline=None,
    database=None,
    suppress_health_check=list(HealthCheck),
)
def test_random_compositions_hold_invariants(spec, base):
    """Invariants hold, and the single-queue and fleet engines produce
    byte-identical metrics rows, on random scenario compositions."""
    check_scenario(spec, base)


def small_base():
    base = quick_config(seed=5)
    return replace(
        base, num_devices=30, num_jobs=3, horizon=6 * 3600.0,
        workload=replace(base.workload, trace_size=40),
    )


def test_check_scenario_runs_the_reference_and_its_fleet_twin(monkeypatch):
    engines = []

    def recording_run_policy(env, policy):
        engines.append(env.config.simulation.vectorized_dispatch)
        return run_policy(env, policy)

    monkeypatch.setattr(fuzz_module, "run_policy", recording_run_policy)
    check_scenario(get_scenario("lossy_uplink"), small_base())
    assert engines == [False, True]


def test_check_scenario_catches_an_engine_divergence(monkeypatch):
    """The twin comparison really compares: one extra abort on the fleet
    run alone must fail the check."""

    def diverging_run_policy(env, policy):
        metrics = run_policy(env, policy)
        if env.config.simulation.vectorized_dispatch:
            metrics.total_aborts += 1
        return metrics

    monkeypatch.setattr(fuzz_module, "run_policy", diverging_run_policy)
    with pytest.raises(AssertionError, match="engine identity violated"):
        check_scenario(get_scenario("lossy_uplink"), small_base())


def test_registered_fuzz_tagged_scenarios_absent():
    """The fuzzer must not leak temporary registrations."""
    assert not [n for n in scenario_names() if n.startswith("fuzz")]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker identity needs forked workers to inherit the registry",
)
def test_worker_identity_on_network_scenario():
    check_worker_identity(get_scenario("lossy_uplink"))
    assert not [n for n in scenario_names() if n.startswith("fuzz")]


def test_cli_smoke(capsys):
    assert main(["--budget", "2", "--seed", "3"]) == 0
    assert "2 examples passed" in capsys.readouterr().out


def test_cli_rejects_bad_arguments():
    with pytest.raises(SystemExit):
        main(["--budget", "0"])
