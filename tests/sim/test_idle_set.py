"""The single-queue engine's idle set and the dispatch walk over it.

``ReferenceSimulator._idle`` holds the ids of the devices whose status is
IDLE.  It is updated at four transitions — check-in, checkout, task start
and task finish — and a dispatch sweep walks it in ascending id order.
These tests hold the set to the device statuses after every event of
several churning cells, hold the walk to its contract (each idle device
offered at most once, and only if it may take a task that is pending), and
check that the set survives a crash and resume.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.baselines import make_policy
from repro.core.requirements import GENERAL, HIGH_PERFORMANCE
from repro.resilience import SimulatedCrash
from repro.sim.device import DeviceStatus
from repro.sim.engine import SimulationConfig, Simulator
from tests.conftest import make_device, make_job
from tests.sim.test_engine import DETERMINISTIC_LATENCY, make_trace
from tests.sim.test_midnight_budget import OfferLog
from tests.sim.test_run_invariants import cell_sim

#: Churning cells: shuffled sparse ids with aborts and refunds, whole
#: rounds answering on one timestamp, a churn storm and a regional outage
#: (a region goes dark and checks back in at once).
CELLS = ("sparse-ids", "same-timestamp", "churn_storm", "regional_outage")

HANDLERS = (
    "_on_job_arrival",
    "_on_device_checkin",
    "_on_device_checkout",
    "_on_device_response",
    "_on_request_deadline",
)


def idle_ids(sim: Simulator) -> set:
    return {
        device_id
        for device_id, device in sim._devices.items()
        if device.status is DeviceStatus.IDLE
    }


def watched_run(name: str):
    """Run the cell on the single-queue engine, checking the idle set after
    every event and every task start; returns the simulator and the
    transitions it saw, as ``(handler, "added" | "removed" | "started")``
    counts."""
    sim = cell_sim(name, vectorized_dispatch=False)
    transitions = Counter()
    current = []

    def watch(handler_name):
        handler = getattr(sim, handler_name)

        def wrapped(event):
            before = set(sim._idle)
            current.append(handler_name)
            handler(event)
            current.pop()
            assert sim._idle == idle_ids(sim), (handler_name, event)
            if sim._idle - before:
                transitions[handler_name, "added"] += 1
            if before - sim._idle:
                transitions[handler_name, "removed"] += 1

        return wrapped

    try_assign = sim._try_assign

    def watched_try_assign(device):
        try_assign(device)
        if device.status is DeviceStatus.BUSY:
            assert device.device_id not in sim._idle
            transitions[current[-1], "started"] += 1

    # ``run`` builds its handler table from the instance's attributes, and
    # the handlers and the sweep reach ``_try_assign`` through the instance.
    for handler_name in HANDLERS:
        setattr(sim, handler_name, watch(handler_name))
    sim._try_assign = watched_try_assign
    sim.run()
    return sim, transitions


@pytest.fixture(scope="module")
def watched():
    return {name: watched_run(name) for name in CELLS}


@pytest.mark.parametrize("name", CELLS)
def test_idle_set_is_the_idle_devices_after_every_event(watched, name):
    sim, transitions = watched[name]
    assert sim._idle == idle_ids(sim)
    assert sim._metrics.total_responses > 0
    assert sum(transitions.values()) > 60, transitions


def test_the_cells_exercise_every_idle_transition(watched):
    """Check-in adds, checkout removes, a task finish adds back, and tasks
    start from a check-in, a response and a deadline's re-dispatch.  In
    these cells no arrival finds a device free to take its task; the
    arrival sweep's task start is the one that
    ``test_a_sweep_offers_each_eligible_idle_device_once`` makes at t=0."""
    seen = Counter()
    for _sim, transitions in watched.values():
        seen.update(transitions)
    assert seen["_on_device_checkin", "added"] > 0
    assert seen["_on_device_checkout", "removed"] > 0
    assert seen["_on_device_response", "added"] > 0
    for handler_name in (
        "_on_device_checkin",
        "_on_device_response",
        "_on_request_deadline",
    ):
        assert seen[handler_name, "started"] > 0, handler_name


class AcceptOnly(OfferLog):
    """Logs every offer; takes only the devices in ``accept``."""

    def __init__(self, inner, accept) -> None:
        super().__init__(inner)
        self.accept = frozenset(accept)

    def assign(self, device_id, now):
        if device_id in self.accept:
            return super().assign(device_id, now)
        self.offers.append((now, device_id, None))
        return None


@pytest.mark.parametrize("vectorized", [False, True], ids=["single-queue", "fleet"])
def test_a_sweep_offers_each_eligible_idle_device_once(vectorized):
    """At t=50 a high-performance job arrives and the policy declines every
    offer.  The sweep offers devices 0, 1 and 3 once each, in that order:
    device 2 is general-only, device 4 is not online until t=60 and
    device 5 is busy with job 1."""
    devices = [make_device(device_id=i, cpu=0.8, mem=0.8) for i in range(6)]
    devices[2] = make_device(device_id=2, cpu=0.2, mem=0.2)
    horizon = 2_000.0
    trace = make_trace(
        [(i, 0.0, horizon) for i in (0, 1, 2, 3, 5)] + [(4, 60.0, horizon)]
    )
    jobs = [
        make_job(1, requirement=GENERAL, demand=1, rounds=1,
                 base_task_duration=200.0),
        make_job(2, requirement=HIGH_PERFORMANCE, demand=3, rounds=1,
                 arrival=50.0),
    ]
    policy = AcceptOnly(make_policy("fifo", seed=7), accept={5})
    sim = Simulator(
        devices, trace, jobs, policy,
        SimulationConfig(
            horizon=horizon,
            seed=0,
            latency=DETERMINISTIC_LATENCY,
            vectorized_dispatch=vectorized,
        ),
    )
    sim.run()
    assert [(d, j) for t, d, j in policy.offers if t == 0.0] == [
        (0, None), (1, None), (2, None), (3, None), (5, 1),
    ]
    assert [d for t, d, _ in policy.offers if t == 50.0] == [0, 1, 3]


def test_the_idle_set_survives_a_crash_and_resume():
    """Crashed halfway on the single-queue engine, the resumed simulator
    holds the idle set the devices say, and finishes like the whole run."""
    whole = cell_sim("sparse-ids", vectorized_dispatch=False)
    whole.run()
    crashed = cell_sim(
        "sparse-ids",
        vectorized_dispatch=False,
        crash_at_event=whole.events_processed // 2,
    )
    with pytest.raises(SimulatedCrash):
        crashed.run()
    assert crashed._idle, "the crash point should leave idle devices"
    resumed = Simulator.resume(crashed.snapshot(), crash_at_event=None)
    assert resumed._idle == crashed._idle == idle_ids(resumed)
    resumed.run()
    assert resumed._idle == whole._idle == idle_ids(resumed)
    assert resumed.events_processed == whole.events_processed
    assert resumed.policy.decisions == whole.policy.decisions
