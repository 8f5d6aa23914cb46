"""Slots are the fleet engine's only device identity — on ids that are not
``0..n-1``.

Every other identity suite numbers its devices ``0..n-1`` in input order,
where a device's id, its position in the input and its slot (its rank in
ascending id order) are the same number, so a slot handed to something that
wants an id — or the reverse — would go unnoticed.  Here the ids are sparse
(``7 + 13k``) and the input is shuffled.  The fleet engine must still
reproduce the single-queue engine's decision hash, metrics digest and event
count, on a cell that aborts rounds (the deadline refund translates
``request.assigned_ids`` to slots).  The fleet engine is the program's
default, so every run here names its engine (``fleet=``) and the twins'
oracle side is ``vectorized_dispatch=False``.  ``tests/sim/test_run_invariants.py``
also holds the fleet run of this cell to the twin-free invariants of
:mod:`repro.invariants`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.baselines import POLICY_NAMES, FIFOPolicy, make_policy
from repro.core.requirements import COMPUTE_RICH, GENERAL, MEMORY_RICH
from repro.core.scheduler import VennScheduler
from repro.core.types import JobSpec
from repro.resilience import RecordingPolicy, metrics_digest
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.latency import LatencyConfig
from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig

N = 240
HORIZON = 30_000.0


def sparse_cell():
    """Devices (sparse shuffled ids), trace and jobs; also a cell of
    ``tests/sim/test_run_invariants.py``."""
    ids = [7 + 13 * k for k in range(N)]
    order = np.random.default_rng(5).permutation(N).tolist()
    sampled = CapacitySampler(seed=5).sample_devices(N)
    devices = [replace(sampled[k], device_id=ids[k]) for k in order]
    trace = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=HORIZON, peak_availability=0.5,
                      trough_availability=0.3, median_session=2 * 3600.0),
        seed=6,
    ).generate(N, device_ids=[ids[k] for k in order])
    # Deadlines too short for the supply: rounds abort and are retried.
    jobs = [
        JobSpec(1, GENERAL, demand_per_round=20, num_rounds=4,
                arrival_time=50.0, round_deadline=2_500.0,
                base_task_duration=90.0),
        JobSpec(2, COMPUTE_RICH, demand_per_round=12, num_rounds=3,
                arrival_time=300.0, round_deadline=900.0,
                base_task_duration=90.0),
        JobSpec(3, MEMORY_RICH, demand_per_round=10, num_rounds=3,
                arrival_time=700.0, round_deadline=1_500.0,
                base_task_duration=90.0),
    ]
    return devices, trace, jobs


cell = pytest.fixture(scope="module")(sparse_cell)


#: The cell's latency: jittered compute, so responses rarely share a time.
LATENCY = LatencyConfig(compute_sigma=0.3, comm_min=5.0, comm_max=20.0)


def run(cell, *, fleet, policy_name="venn"):
    devices, trace, jobs = cell
    policy = RecordingPolicy(make_policy(policy_name, seed=3))
    config = SimulationConfig(
        horizon=HORIZON, seed=9, latency=LATENCY, vectorized_dispatch=fleet
    )
    sim = Simulator(devices, trace, jobs, policy, config)
    metrics = sim.run()
    identity = (
        policy.decision_hash, metrics_digest(metrics), sim.events_processed
    )
    return identity, metrics, sim


def test_cell_has_sparse_shuffled_ids(cell):
    ids = [d.device_id for d in cell[0]]
    assert ids != sorted(ids) and min(ids) == 7 and max(ids) > 3_000
    assert set(cell[1].device_ids.tolist()) <= set(ids)


def test_fleet_matches_single_queue_through_aborted_rounds(cell):
    reference, ref_metrics, ref_sim = run(cell, fleet=False)
    assert ref_metrics.total_aborts >= 1  # the deadline refund path ran
    assert ref_metrics.total_failures >= 1
    fleet, _m, sim = run(cell, fleet=True)
    assert fleet == reference
    # The arrays are by slot (ascending id), the reference's runtimes by
    # id: their daily budgets agree device for device.
    ids = sim._vec.profiles.device_id.tolist()
    assert ids == sorted(d.device_id for d in cell[0])
    days = [ref_sim._devices[i].last_participation_day for i in ids]
    assert [-1 if d is None else d for d in days] == sim._vec.last_day.tolist()


@pytest.mark.parametrize("policy_name", [p for p in POLICY_NAMES if p != "venn"])
def test_every_policy_is_offered_ids_not_slots(cell, policy_name):
    """Each baseline walks its own dispatch path (per-device ``assign``,
    job-driven sampling, random tie-breaks); on every one the fleet engine
    must hand the policy device ids and reproduce the reference."""
    reference, ref_metrics, ref_sim = run(
        cell, fleet=False, policy_name=policy_name
    )
    assert ref_metrics.total_responses + ref_metrics.total_failures >= 1
    fleet, _m, sim = run(cell, fleet=True, policy_name=policy_name)
    assert fleet == reference
    ids = {d.device_id for d in cell[0]}
    offered = {device_id for _now, device_id, _job in sim.policy.decisions}
    assert offered and offered <= ids
    assert sim.policy.decisions == ref_sim.policy.decisions


class CheckinRecorder(FIFOPolicy):
    """Overrides only the per-event check-in hook, so folded runs reach it
    through ``SchedulingPolicy.on_device_checkin_batch``'s default loop over
    the ids the engine hands it."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = []
        self.batch_sizes = []

    def on_device_checkin(self, device_id, now):
        self.seen.append((device_id, now))

    def on_device_checkin_batch(self, device_ids, times):
        assert len(device_ids) == len(times)
        self.batch_sizes.append(len(device_ids))
        super().on_device_checkin_batch(device_ids, times)


def early_and_late_job(late_requirement=GENERAL):
    """Nothing is pending between the first job's end and the second one's
    arrival: the fleet engine folds that stretch in one kernel call."""
    return [
        JobSpec(1, GENERAL, demand_per_round=20, num_rounds=2,
                arrival_time=50.0, round_deadline=2_500.0,
                base_task_duration=90.0),
        JobSpec(2, late_requirement, demand_per_round=5, num_rounds=1,
                arrival_time=25_000.0, round_deadline=2_500.0,
                base_task_duration=90.0),
    ]


def test_folded_checkins_reach_the_policy_with_the_right_devices(cell):
    devices, trace, _jobs = cell
    jobs = early_and_late_job()

    def checkins(fleet):
        policy = CheckinRecorder()
        config = SimulationConfig(
            horizon=HORIZON, seed=9, vectorized_dispatch=fleet
        )
        Simulator(devices, trace, jobs, policy, config).run()
        return policy

    scalar = checkins(fleet=False)
    vector = checkins(fleet=True)
    assert scalar.batch_sizes == [] and len(scalar.seen) > 200
    assert vector.batch_sizes and max(vector.batch_sizes) > 100
    assert vector.seen == scalar.seen


class BatchCountingVenn(VennScheduler):
    batches = 0

    def on_device_checkin_batch(self, device_ids, times):
        self.batches += 1
        super().on_device_checkin_batch(device_ids, times)


def test_venn_folds_sparse_checkins_like_the_reference(cell):
    """Venn's batch hook maps the folded ids to its bound rows by search
    (sparse, shuffled ids): the supply picture, decisions and metrics
    equal the reference engine's per-event hook."""
    devices, trace, _jobs = cell
    jobs = early_and_late_job(type(GENERAL)("capable", min_cpu=0.3))

    def venn_run(fleet):
        policy = RecordingPolicy(BatchCountingVenn(seed=3))
        config = SimulationConfig(
            horizon=HORIZON, seed=9, vectorized_dispatch=fleet
        )
        sim = Simulator(devices, trace, jobs, policy, config)
        metrics = sim.run()
        assert policy.fleet._id0 is None  # rows come from the search
        return policy, (metrics_digest(metrics), sim.events_processed)

    scalar, scalar_identity = venn_run(fleet=False)
    vector, vector_identity = venn_run(fleet=True)
    assert scalar.batches == 0 and vector.batches >= 1
    assert vector.decisions == scalar.decisions and len(scalar.decisions) >= 45
    assert vector_identity == scalar_identity
    # Same supply picture, check-in for check-in.
    assert vector.supply.observed_signatures() == scalar.supply.observed_signatures()
