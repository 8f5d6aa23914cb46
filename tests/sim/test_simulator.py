"""The shared ``Simulator`` base: which engine it builds, and the loop
bookkeeping both engines share.

``Simulator(...)`` picks the engine once, at construction, from
``SimulationConfig.vectorized_dispatch``; snapshots keep it.  The
``max_events`` valve is shared by both engines and admits exactly
``max_events`` events, across a resume too; a run with no job to finish
processes no event; and both engines leave the same devices behind.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import make_policy
from repro.resilience import LatestSnapshotStore, SimulatedCrash
from repro.sim.device import DeviceStatus
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.fleet import FleetSimulator
from repro.sim.reference import ReferenceSimulator
from repro.sim.vector import STATUS_BUSY, STATUS_IDLE, STATUS_OFFLINE
from repro.traces import (
    CapacitySampler,
    DiurnalAvailabilityModel,
    DiurnalConfig,
    WorkloadConfig,
    WorkloadGenerator,
)
from tests.conftest import make_job
from tests.resilience.conftest import small_environment

ENGINES = [
    pytest.param(False, id="reference"),
    pytest.param(True, id="fleet"),
]

HORIZON = 6 * 3600.0


def hygiene_cell():
    """300 devices, 3 jobs, 6 h (seeds 1/2/3): the import-hygiene run of
    CI, whose jobs all finish."""
    devices = CapacitySampler(seed=1).sample_devices(300)
    trace = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=HORIZON), seed=2
    ).generate(300)
    jobs = WorkloadGenerator(
        WorkloadConfig(num_jobs=3, min_demand=5, max_demand=20, max_rounds=3),
        seed=3,
    ).generate()
    return devices, trace, jobs


def starved_cell():
    """40 devices and one job asking for 60 a round: every round aborts,
    so the run ends at the horizon, after a static drain on the fleet
    engine."""
    devices, trace, _jobs = small_environment()
    return devices, trace, [make_job(1, demand=60, rounds=1, deadline=6_000.0)]


def simulator(cell, vectorized, sink=None, **overrides):
    devices, trace, jobs = cell
    config = SimulationConfig(
        horizon=trace.horizon,
        seed=4,
        vectorized_dispatch=vectorized,
        **overrides,
    )
    return Simulator(
        devices, trace, jobs, make_policy("venn", seed=4), config,
        checkpoint_sink=sink,
    )


class TestEngineSelection:
    def test_the_default_builds_the_fleet_engine(self):
        devices, trace, jobs = hygiene_cell()
        sim = Simulator(devices, trace, jobs, make_policy("venn", seed=4))
        assert type(sim) is FleetSimulator
        assert type(
            Simulator(devices, trace, jobs, make_policy("venn"), SimulationConfig())
        ) is FleetSimulator

    @pytest.mark.parametrize("vectorized", ENGINES)
    def test_the_config_picks_the_engine(self, vectorized):
        sim = simulator(hygiene_cell(), vectorized)
        expected = FleetSimulator if vectorized else ReferenceSimulator
        assert type(sim) is expected
        assert isinstance(sim, Simulator)
        # Keyword construction selects the same way.
        devices, trace, jobs = hygiene_cell()
        by_name = Simulator(
            devices=devices, availability=trace, workload=jobs,
            policy=make_policy("venn"), config=sim.config,
        )
        assert type(by_name) is expected

    @pytest.mark.parametrize(
        "build", [hygiene_cell, starved_cell], ids=["jobs-finish", "to-horizon"]
    )
    def test_both_engines_leave_the_same_devices(self, build):
        """The reference's ``DeviceRuntime`` objects and the fleet engine's
        arrays agree device for device at the end of a run: status,
        session end and last participation day."""
        cell = build()
        reference = simulator(cell, False)
        fleet = simulator(cell, True)
        reference.run()
        fleet.run()
        code = {
            DeviceStatus.OFFLINE: STATUS_OFFLINE,
            DeviceStatus.IDLE: STATUS_IDLE,
            DeviceStatus.BUSY: STATUS_BUSY,
        }
        expected = [
            (
                device_id, code[d.status], d.session_end,
                -1 if d.last_participation_day is None
                else d.last_participation_day,
            )
            for device_id, d in sorted(reference._devices.items())
        ]
        vec = fleet._vec  # slots ascend by device id
        actual = list(
            zip(
                vec.profiles.device_id.tolist(), vec.status.tolist(),
                vec.sess.tolist(), vec.last_day.tolist(),
            )
        )
        assert actual == expected
        assert any(day >= 0 for *_, day in actual)

    @pytest.mark.parametrize("vectorized", ENGINES)
    @pytest.mark.parametrize("started", [False, True], ids=["pre-run", "post-run"])
    def test_snapshot_and_resume_keep_the_engine(self, vectorized, started):
        sim = simulator(hygiene_cell(), vectorized)
        if started:
            sim.run()
        resumed = Simulator.resume(sim.snapshot())
        assert type(resumed) is type(sim)
        assert resumed.run().job_jcts() == sim.run().job_jcts()


class TestEventBudget:
    @pytest.mark.parametrize("vectorized", ENGINES)
    @pytest.mark.parametrize(
        "build", [hygiene_cell, starved_cell], ids=["jobs-finish", "to-horizon"]
    )
    def test_a_run_of_n_events_passes_at_n_and_raises_at_n_minus_1(
        self, build, vectorized
    ):
        cell = build()
        free = simulator(cell, vectorized)
        metrics = free.run()
        events = free.events_processed
        assert events > 100

        exact = simulator(cell, vectorized, max_events=events)
        assert exact.run().job_jcts() == metrics.job_jcts()
        assert exact.events_processed == events

        short = simulator(cell, vectorized, max_events=events - 1)
        with pytest.raises(RuntimeError, match="max_events"):
            short.run()
        assert short.events_processed == events - 1

    @pytest.mark.parametrize("vectorized", ENGINES)
    def test_a_resumed_run_counts_against_the_same_budget(self, vectorized):
        cell = hygiene_cell()
        free = simulator(cell, vectorized)
        free.run()
        events = free.events_processed
        for limit, passes in ((events, True), (events - 1, False)):
            store = LatestSnapshotStore()
            crashed = simulator(
                cell, vectorized, store, max_events=limit,
                checkpoint_interval=50, crash_at_event=events // 2,
            )
            with pytest.raises(SimulatedCrash):
                crashed.run()
            resumed = Simulator.resume(store.latest, crash_at_event=None)
            if passes:
                resumed.run()
                assert resumed.events_processed == events
            else:
                with pytest.raises(RuntimeError, match="max_events"):
                    resumed.run()
                assert resumed.events_processed == limit

    @pytest.mark.parametrize("vectorized", ENGINES)
    def test_a_run_with_no_job_processes_no_event(self, vectorized):
        """The loops stop once no job is unfinished — before the first
        event when the workload is empty, on both engines alike."""
        devices, trace, _jobs = hygiene_cell()
        sim = simulator((devices, trace, []), vectorized)
        metrics = sim.run()
        assert sim.events_processed == 0
        assert metrics.total_checkins == 0 and metrics.jobs == {}
