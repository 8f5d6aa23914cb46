"""Slots are the fleet engine's only device identity — on ids that are not
``0..n-1``.

Every other identity suite numbers its devices ``0..n-1`` in input order,
where a device's id, its position in the input and its slot (its rank in
ascending id order) are the same number, so a slot handed to something that
wants an id — or the reverse — would go unnoticed.  Here the ids are sparse
(``7 + 13k``) and the input is shuffled.  The fleet engine must still
reproduce the single-queue engine's decision hash, metrics digest and event
count, on a cell that aborts rounds (the deadline refund translates
``request.assigned`` ids to slots).  ``tests/sim/test_run_invariants.py``
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


def run(cell, policy_name="venn", **overrides):
    devices, trace, jobs = cell
    policy = RecordingPolicy(make_policy(policy_name, seed=3))
    config = SimulationConfig(
        horizon=HORIZON, seed=9, latency=LATENCY, **overrides
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
    reference, ref_metrics, _sim = run(cell)
    assert ref_metrics.total_aborts >= 1  # the deadline refund path ran
    assert ref_metrics.total_failures >= 1
    fleet, _m, sim = run(cell, vectorized_dispatch=True)
    assert fleet == reference
    # The lazily built runtimes are keyed by id, not by slot.
    assert sorted(sim.devices) == sorted(d.device_id for d in cell[0])
    assert sum(d.tasks_failed for d in sim.devices.values()) == (
        ref_metrics.total_failures
    )


@pytest.mark.parametrize("policy_name", [p for p in POLICY_NAMES if p != "venn"])
def test_every_policy_is_offered_ids_not_slots(cell, policy_name):
    """Each baseline walks its own dispatch path (per-device ``assign``,
    job-driven sampling, random tie-breaks); on every one the fleet engine
    must hand the policy device ids and reproduce the reference."""
    reference, ref_metrics, ref_sim = run(cell, policy_name=policy_name)
    assert ref_metrics.total_responses + ref_metrics.total_failures >= 1
    fleet, _m, sim = run(cell, policy_name=policy_name, vectorized_dispatch=True)
    assert fleet == reference
    ids = {d.device_id for d in cell[0]}
    offered = {device_id for _now, device_id, _job in sim.policy.decisions}
    assert offered and offered <= ids
    assert sim.policy.decisions == ref_sim.policy.decisions


class CheckinRecorder(FIFOPolicy):
    """Overrides only the per-event check-in hook, so folded runs reach it
    through ``SchedulingPolicy.on_device_checkin_batch``'s default loop over
    the engine's lazy device view."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = []
        self.batch_sizes = []

    def on_device_checkin(self, device, now):
        self.seen.append((device.device_id, now))

    def on_device_checkin_batch(self, devices, times, sig_ids, sig_table):
        assert len(devices) == len(times) == len(sig_ids)
        assert devices[0].device_id == next(iter(devices)).device_id
        self.batch_sizes.append(len(devices))
        super().on_device_checkin_batch(devices, times, sig_ids, sig_table)


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

    def checkins(**overrides):
        policy = CheckinRecorder()
        config = SimulationConfig(horizon=HORIZON, seed=9, **overrides)
        Simulator(devices, trace, jobs, policy, config).run()
        return policy

    scalar = checkins()
    vector = checkins(vectorized_dispatch=True)
    assert scalar.batch_sizes == [] and len(scalar.seen) > 200
    assert vector.batch_sizes and max(vector.batch_sizes) > 100
    assert vector.seen == scalar.seen


class BatchCountingVenn(VennScheduler):
    batches = 0

    def on_device_checkin_batch(self, devices, times, sig_ids, sig_table):
        self.batches += 1
        super().on_device_checkin_batch(devices, times, sig_ids, sig_table)


def test_venn_without_a_usable_signature_provider_reads_the_device_view(cell):
    """Two requirements sharing a name make the engine's signatures unusable
    to Venn, whose batch hook then falls back to the per-event hook — the
    one place it reads the devices it is handed."""
    devices, trace, _jobs = cell
    jobs = early_and_late_job(type(GENERAL)("general", min_cpu=0.3))

    def venn_run(**overrides):
        policy = RecordingPolicy(BatchCountingVenn(seed=3))
        config = SimulationConfig(horizon=HORIZON, seed=9, **overrides)
        sim = Simulator(devices, trace, jobs, policy, config)
        metrics = sim.run()
        assert not policy._provider_ok
        return policy, (metrics_digest(metrics), sim.events_processed)

    scalar, scalar_identity = venn_run()
    vector, vector_identity = venn_run(vectorized_dispatch=True)
    assert scalar.batches == 0 and vector.batches >= 1
    assert vector.decisions == scalar.decisions and len(scalar.decisions) >= 45
    assert vector_identity == scalar_identity
    # Same supply picture, check-in for check-in.
    assert vector.supply.observed_signatures() == scalar.supply.observed_signatures()
