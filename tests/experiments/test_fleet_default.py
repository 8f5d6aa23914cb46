"""The fleet engine is the program's default, and choosing it moves no row.

Every experiment, sweep cell and co-simulation runs on whatever engine its
``SimulationConfig`` selects, and ``vectorized_dispatch=True`` is the
default.  This module holds the three facts that make the default safe:

* the defaults — ``SimulationConfig()`` and every preset — select the fleet
  engine;
* the sweep's ``run_cell`` and ``CoSimulation.run`` really run it (a spy on
  ``Simulator.run`` reads the class of the engine that ran);
* on the paper's five demand scenarios under ``random``, ``srsf`` and
  ``venn`` at ``quick``, the sweep rows are byte-identical on the
  single-queue reference (``vectorized_dispatch=False``) and on the fleet
  engine.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cosim import CoSimulation
from repro.experiments import sweep
from repro.experiments.config import get_config
from repro.experiments.environment import build_environment
from repro.experiments.sweep import build_cell_environment, plan_cells, run_cell
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.fleet import FleetSimulator
from repro.traces.workloads import DEMAND_SCENARIOS

from tests.cosim.test_cosim import cosim_base, tiny_cosim_config

POLICIES = ("random", "srsf", "venn")


@pytest.fixture
def engines_run(monkeypatch):
    """Spy on ``Simulator.run``: one ``ran_fleet`` flag per finished run."""
    seen = []
    real_run = Simulator.run

    def spy(self, *args, **kwargs):
        metrics = real_run(self, *args, **kwargs)
        seen.append(isinstance(self, FleetSimulator))
        return metrics

    monkeypatch.setattr(Simulator, "run", spy)
    return seen


def on_reference(env):
    """The same environment, on the single-queue reference engine."""
    config = env.config
    simulation = replace(config.simulation, vectorized_dispatch=False)
    return replace(env, config=replace(config, simulation=simulation))


def test_the_defaults_select_the_fleet_engine():
    assert SimulationConfig().vectorized_dispatch is True
    for preset in ("quick", "default", "large"):
        assert get_config(preset).simulation.vectorized_dispatch is True


def test_run_cell_runs_the_fleet_engine(engines_run):
    cell = plan_cells(["even"], 1, ["venn"])[0]
    run_cell(cell, smoke=True)
    assert engines_run == [True]


def test_cosimulation_runs_the_fleet_engine(engines_run):
    CoSimulation(
        build_environment(cosim_base(seed=13)), "venn",
        config=tiny_cosim_config(),
    ).run()
    assert engines_run == [True]


@pytest.mark.parametrize("scenario", DEMAND_SCENARIOS)
def test_paper_rows_are_identical_on_both_engines(
    scenario, monkeypatch, engines_run
):
    cells = plan_cells([scenario], 1, POLICIES)
    fleet = [json.dumps(run_cell(cell), sort_keys=True) for cell in cells]
    monkeypatch.setattr(
        sweep, "build_cell_environment",
        lambda cell, **kw: on_reference(build_cell_environment(cell, **kw)),
    )
    reference = [json.dumps(run_cell(cell), sort_keys=True) for cell in cells]
    assert engines_run == [True] * len(cells) + [False] * len(cells)
    assert fleet == reference
