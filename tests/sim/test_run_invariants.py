"""Fleet runs held to the twin-free invariants of :mod:`repro.invariants`.

The cells are the ones that reach the states the invariants talk about
without any injected fault: the sparse shuffled-id cell of
``test_sparse_device_ids.py`` (a slot is not an id; rounds abort and
refund), the deterministic-latency cell of ``test_refund_eviction.py``
(whole rounds answer on one timestamp), and every scenario of the library
at the ``quick`` preset — the paper's demand and category-bias workloads,
the beyond-paper ones (a burst of arrivals, churn storms, stragglers,
tenant tiers, contention) and the network ones, among them
``regional_outage`` (a region of the fleet goes dark and checks back in at
once), ``link_flaps`` and ``lossy_uplink`` (reports fail in bursts or at
random).  Every cell is also crashed halfway and resumed, the one injected
fault: the resumed run must leave what the uninterrupted one leaves.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.baselines import make_policy
from repro.core.types import RequestState
from repro.experiments.config import quick_config
from repro.invariants import (
    AssignmentLog,
    InvariantViolation,
    check_busy_slots,
    check_daily_budget,
    check_responses,
    check_run,
    check_stream_cursor,
)
from repro.resilience import SimulatedCrash
from repro.scenarios import (
    BEYOND_PAPER_SCENARIOS,
    NETWORK_SCENARIOS,
    get_scenario,
)
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.vector import STATUS_BUSY
from repro.traces.workloads import BIAS_SCENARIOS, DEMAND_SCENARIOS
from tests.sim.test_engine import DETERMINISTIC_LATENCY
from tests.sim.test_refund_eviction import contended_scenario
from tests.sim.test_sparse_device_ids import HORIZON as SPARSE_HORIZON
from tests.sim.test_sparse_device_ids import LATENCY as SPARSE_LATENCY
from tests.sim.test_sparse_device_ids import sparse_cell

SCENARIOS = (
    *DEMAND_SCENARIOS,
    *BIAS_SCENARIOS,
    *BEYOND_PAPER_SCENARIOS,
    *NETWORK_SCENARIOS,
)
CELLS = ("sparse-ids", "same-timestamp", *SCENARIOS)


def cell_sim(name: str, **config_changes) -> Simulator:
    """The cell's simulator under Venn with its assignment log, not yet
    run: the fleet engine, unless ``config_changes`` say otherwise."""
    if name in SCENARIOS:
        env = get_scenario(name).build_environment(quick_config(seed=7))
        devices, trace, jobs = env.devices, env.availability, env.workload
        policy_seed = env.config.seed_for("policy")
        config = env.config.simulation
    else:
        build, horizon, latency = {
            "sparse-ids": (sparse_cell, SPARSE_HORIZON, SPARSE_LATENCY),
            "same-timestamp": (
                contended_scenario, 30_000.0, DETERMINISTIC_LATENCY
            ),
        }[name]
        devices, trace, jobs = build()
        policy_seed = 3
        config = SimulationConfig(horizon=horizon, seed=9, latency=latency)
    return Simulator(
        devices, trace, jobs,
        AssignmentLog(make_policy("venn", seed=policy_seed)),
        replace(config, **{"vectorized_dispatch": True, **config_changes}),
    )


def cell_run(name: str, vectorized: bool = True) -> Simulator:
    """The cell's run under Venn, finished, with its assignment log."""
    sim = cell_sim(name, vectorized_dispatch=vectorized)
    sim.run()
    return sim


@pytest.fixture(scope="module")
def runs():
    return {name: cell_run(name) for name in CELLS}


@pytest.mark.parametrize("name", CELLS)
def test_every_invariant_holds(runs, name):
    sim = runs[name]
    assert sim.config.enforce_daily_limit
    counts = check_run(sim, sim.policy)
    assert counts["assignments"] > 60, counts
    if name != "same-timestamp":  # always-on devices: no static churn
        assert counts["static_events"] > 100, counts


def test_the_cells_reach_the_states_the_invariants_guard(runs):
    """Over the cells: responses still queued at the end (so the busy-slot
    rule is not vacuous), failed reports, aborted rounds, and same-day
    second tasks after a refund."""
    counts = [check_run(sim, sim.policy) for sim in runs.values()]
    assert sum(c["busy_slots"] for c in counts) >= 1
    assert sum(c["same_day_repeats"] for c in counts) >= 1
    assert sum(sim._metrics.total_failures for sim in runs.values()) >= 1
    assert sum(sim._metrics.total_aborts for sim in runs.values()) >= 1


@pytest.mark.parametrize("name", CELLS)
def test_a_run_crashed_halfway_and_resumed_keeps_every_invariant(runs, name):
    """Crashed halfway and resumed from the crash boundary with the crash
    cleared, the run leaves what the uninterrupted one leaves: the same
    decisions and the same invariant counts.  The log and the requests it
    holds cross the snapshot with the engine."""
    whole = runs[name]
    crashed = cell_sim(name, crash_at_event=whole.events_processed // 2)
    with pytest.raises(SimulatedCrash):
        crashed.run()
    assert crashed.events_processed < whole.events_processed
    resumed = Simulator.resume(crashed.snapshot(), crash_at_event=None)
    resumed.run()
    assert resumed.events_processed == whole.events_processed
    assert resumed.policy.decisions == whole.policy.decisions
    assert check_run(resumed, resumed.policy) == check_run(whole, whole.policy)


class TestViolationsAreCaught:
    """Each predicate raises on a finished run of every cell whose leftovers
    were tampered with the way a broken handler would leave them."""

    @pytest.fixture(params=CELLS)
    def sim(self, runs, request):
        # A private copy: the module's runs are shared by every test.
        return Simulator.resume(runs[request.param].snapshot())

    def test_an_uncounted_failure(self, sim):
        sim._metrics.total_failures -= 1
        with pytest.raises(InvariantViolation, match="assignments"):
            check_responses(sim, sim.policy)
        with pytest.raises(InvariantViolation, match="stream cursor"):
            check_stream_cursor(sim)

    def test_a_busy_slot_without_a_queued_response(self, sim):
        idle = int((sim._vec.status != STATUS_BUSY).nonzero()[0][0])
        sim._vec.status[idle] = STATUS_BUSY
        with pytest.raises(InvariantViolation, match="busy slots"):
            check_busy_slots(sim)

    def test_a_second_task_without_a_refund(self, sim):
        now, device_id, reported = next(
            (t, d, r) for t, d, r in sim.policy.assigned
            if r.state is RequestState.COMPLETED and d in r.responses
        )
        sim.policy.assigned[:] = [
            (now, device_id, reported), (now + 1.0, device_id, reported)
        ]
        with pytest.raises(InvariantViolation, match="without a refund"):
            check_daily_budget(sim, sim.policy)


def test_only_finished_fleet_runs_are_checked():
    reference = cell_run("same-timestamp", vectorized=False)
    with pytest.raises(ValueError, match="fleet-engine"):
        check_run(reference, reference.policy)
    devices, trace, jobs = contended_scenario()
    unfinished = Simulator(
        devices, trace, jobs, AssignmentLog(make_policy("venn", seed=3)),
        SimulationConfig(horizon=30_000.0, vectorized_dispatch=True),
    )
    with pytest.raises(ValueError, match="after run"):
        check_stream_cursor(unfinished)
