"""``DeviceFleet``: the population as columns, profiles built on demand.

The sampler fills a fleet's columns and builds no profile; the fleet must
hand out exactly the profiles the pre-change sampler built (the per-device
body kept in ``tests/traces/test_generator_oracles.py``), hash to the pinned
population digests, behave as a ``Sequence`` (slices are fleets, ``==``
compares columns, pickling keeps the columns), check its columns the way
``DeviceProfile`` checks its fields, and leave a simulation exactly as a list
of the same profiles would.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.scheduler import VennScheduler
from repro.core.types import DeviceFleet, DeviceProfile
from repro.resilience import RecordingPolicy, metrics_digest
from repro.sim.engine import SimulationConfig, Simulator
from repro.traces.capacity import CapacityConfig, CapacitySampler
from repro.traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig
from repro.traces.workloads import WorkloadConfig, WorkloadGenerator
from tests.traces.test_generator_oracles import sample_devices as oracle
from tests.traces.test_pinned_inputs import _devices_digest

FIELDS = (
    "device_id", "cpu_score", "memory_score", "speed_factor", "data_domains",
    "reliability",
)


def fields(profile):
    return tuple(getattr(profile, name) for name in FIELDS)


def small_fleet():
    return DeviceFleet(
        [7, 3, 9, 4],
        [0.1, 0.9, 0.5, 0.0],
        [0.2, 0.8, 0.5, 1.0],
        [3.0, 1.1, 2.0, 6.0],
        [0.9, 1.0, 0.5, 0.75],
        [0, 1, 0, 2],
        [(), {"emoji"}, frozenset({"emoji", "keyboard"})],
    )


# --------------------------------------------------------------------------- #
# The sampler
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "config, n, start_id",
    [(None, 5_000, 0), (CapacityConfig(data_domains=()), 300, 11)],
    ids=["default", "no domains"],
)
def test_sampled_fleet_lists_the_pre_change_profiles(config, n, start_id):
    fleet = CapacitySampler(config, seed=3).sample_devices(n, start_id=start_id)
    reference = oracle(CapacitySampler(config, seed=3), n, start_id=start_id)
    assert isinstance(fleet, DeviceFleet)
    assert [fields(p) for p in fleet] == [fields(p) for p in reference]
    assert list(fleet) == reference


def test_sampled_fleet_keeps_the_pinned_digest():
    """``test_pinned_inputs``'s default population, read three ways."""
    fleet = CapacitySampler(seed=7).sample_devices(2_000)
    for population in (
        fleet,
        list(fleet),
        DeviceFleet.of(list(fleet)),
        pickle.loads(pickle.dumps(fleet)),
    ):
        assert _devices_digest(population) == "67d20b55a71104b694f1050fd9efc51d"


# --------------------------------------------------------------------------- #
# The sequence
# --------------------------------------------------------------------------- #
def test_indexing_builds_equal_profiles_on_demand():
    fleet = small_fleet()
    assert len(fleet) == 4
    first = fleet[1]
    assert type(first) is DeviceProfile
    assert fields(first) == (3, 0.9, 0.8, 1.1, frozenset({"emoji"}), 1.0)
    assert type(first.device_id) is int and type(first.cpu_score) is float
    assert fleet[1] == first and fleet[1] is not first  # nothing retained
    assert fleet[-1] == fleet[3] == fleet[np.int64(3)]
    assert hash(first) == hash(fleet[1])
    # Equal domain combinations share one set.
    assert fleet[0].data_domains is fleet[2].data_domains is fleet.domains[0]
    with pytest.raises(IndexError):
        fleet[4]


def test_slices_and_take_are_fleets():
    fleet = small_fleet()
    head = fleet[1:3]
    assert isinstance(head, DeviceFleet)
    assert list(head) == [fleet[1], fleet[2]]
    assert list(fleet[::-1]) == list(reversed(list(fleet)))
    ordered = fleet.take(np.argsort(fleet.device_id))
    assert ordered.device_id.tolist() == [3, 4, 7, 9]
    assert list(ordered) == sorted(fleet, key=lambda p: p.device_id)


def test_equality_compares_columns():
    fleet = small_fleet()
    assert fleet == small_fleet()
    assert fleet != fleet[:3]
    assert fleet != fleet.take([1, 0, 2, 3])
    # Domain ids are per fleet: the same sets under another numbering.
    renumbered = DeviceFleet(
        fleet.device_id, fleet.cpu_score, fleet.memory_score,
        fleet.speed_factor, fleet.reliability,
        [2, 0, 2, 1], [frozenset({"emoji"}), {"emoji", "keyboard"}, ()],
    )
    assert renumbered == fleet
    moved = DeviceFleet(
        fleet.device_id, fleet.cpu_score, fleet.memory_score,
        fleet.speed_factor, fleet.reliability, [0, 1, 0, 0], fleet.domains,
    )
    assert moved != fleet
    assert fleet != list(fleet)  # a fleet equals fleets only
    with pytest.raises(TypeError):
        hash(fleet)


def test_pickle_round_trip_keeps_columns_and_shared_sets():
    fleet = small_fleet()
    clone = pickle.loads(pickle.dumps(fleet, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == fleet and list(clone) == list(fleet)
    assert clone.domain_id.dtype == np.int32
    assert clone.device_id.dtype == np.int64
    assert clone[0].data_domains is clone[2].data_domains
    assert not clone.cpu_score.flags.writeable


def test_of_keeps_a_fleet_and_converts_profiles():
    fleet = small_fleet()
    assert DeviceFleet.of(fleet) is fleet
    rebuilt = DeviceFleet.of(list(fleet))
    assert rebuilt == fleet and rebuilt is not fleet
    assert len(rebuilt.domains) == 3  # one entry per distinct set
    assert DeviceFleet.of([]) == DeviceFleet([], [], [], [], [], [], [])


@pytest.mark.parametrize(
    "ids, contiguous",
    [
        ([4, 5, 6, 7], True),
        ([7, 3, 9, 4], False),  # unordered: rows through the sort order
        ([3, 4, 7, 9], False),  # ascending with gaps
        ([5, 4, 6, 7], False),  # one span, not ascending
    ],
)
def test_rows_find_every_id_by_offset_or_search(ids, contiguous):
    fleet = small_fleet()
    fleet = DeviceFleet(
        ids, fleet.cpu_score, fleet.memory_score, fleet.speed_factor,
        fleet.reliability, fleet.domain_id, fleet.domains,
    )
    assert (fleet._id0 is not None) == contiguous
    assert fleet.rows(ids[::-1]).tolist() == [3, 2, 1, 0]
    assert [fleet.row(device_id) for device_id in ids] == [0, 1, 2, 3]
    assert all(isinstance(fleet.row(device_id), int) for device_id in ids)
    for unknown in (min(ids) - 1, 8, max(ids) + 1):
        with pytest.raises(KeyError, match=f"unknown device ids: \\[{unknown}\\]"):
            fleet.row(unknown)
    # The rule is rebuilt, not pickled.
    clone = pickle.loads(pickle.dumps(fleet))
    assert clone.rows(ids).tolist() == [0, 1, 2, 3]


def test_columns_are_read_only():
    fleet = small_fleet()
    with pytest.raises(ValueError):
        fleet.cpu_score[0] = 0.5


def test_misshapen_columns_and_stray_domain_ids_are_refused():
    with pytest.raises(ValueError, match="1-d and equally long"):
        DeviceFleet([0, 1], [0.5], [0.5, 0.5], [1, 1], [1, 1], [0, 0], [()])
    with pytest.raises(ValueError, match="domain_id must index"):
        DeviceFleet([0], [0.5], [0.5], [1.0], [1.0], [1], [()])


# --------------------------------------------------------------------------- #
# One rule, two entry points
# --------------------------------------------------------------------------- #
def through_profile(**values):
    return DeviceProfile(**values)


def through_fleet(**values):
    fleet = DeviceFleet(
        [values["device_id"]], [values["cpu_score"]], [values["memory_score"]],
        [values.get("speed_factor", 1.0)], [values.get("reliability", 1.0)],
        [0], [values.get("data_domains", frozenset())],
    )
    return fleet[0]


@pytest.mark.parametrize("build", [through_profile, through_fleet])
@pytest.mark.parametrize(
    "bad, message",
    [
        ({"speed_factor": math.nan}, "speed_factor must be finite and positive"),
        ({"speed_factor": math.inf}, "speed_factor must be finite and positive"),
        ({"speed_factor": 0.0}, "speed_factor must be finite and positive"),
        ({"speed_factor": -1.0}, "speed_factor must be finite and positive"),
        ({"cpu_score": 1.5}, r"cpu_score must be in \[0, 1\], got 1.5"),
        ({"cpu_score": math.nan}, r"cpu_score must be in \[0, 1\]"),
        ({"memory_score": -0.1}, r"memory_score must be in \[0, 1\], got -0.1"),
        ({"reliability": 1.1}, r"reliability must be in \[0, 1\], got 1.1"),
    ],
)
def test_both_entry_points_refuse_the_same_values(build, bad, message):
    values = {"device_id": 0, "cpu_score": 0.5, "memory_score": 0.5, **bad}
    with pytest.raises(ValueError, match=message):
        build(**values)


@pytest.mark.parametrize("build", [through_profile, through_fleet])
def test_both_entry_points_freeze_a_mutable_domain_set(build):
    domains = {"emoji"}
    profile = build(device_id=0, cpu_score=0.5, memory_score=0.5,
                    data_domains=domains)
    assert type(profile.data_domains) is frozenset
    domains.add("keyboard")  # the caller's set is not the profile's
    assert profile.data_domains == frozenset({"emoji"})
    assert hash(profile) == hash(through_profile(
        device_id=0, cpu_score=0.5, memory_score=0.5,
        data_domains=frozenset({"emoji"}),
    ))


# --------------------------------------------------------------------------- #
# A simulation reads the fleet as it read the list
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cell():
    n, horizon = 800, 6 * 3600.0
    fleet = CapacitySampler(seed=21).sample_devices(n)
    availability = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=horizon), seed=22
    ).generate(n)
    jobs = WorkloadGenerator(
        WorkloadConfig(
            num_jobs=5, demand_scale=0.5, min_demand=5, max_demand=80,
            rounds_scale=0.5, max_rounds=6, mean_interarrival=900.0,
        ),
        seed=23,
    ).generate()
    return fleet, availability, jobs, horizon


@pytest.mark.parametrize("vectorized", [False, True], ids=["reference", "fleet"])
def test_a_list_of_the_profiles_runs_like_the_fleet(cell, vectorized):
    fleet, availability, jobs, horizon = cell
    outcomes = []
    for devices in (fleet, list(fleet)):
        policy = RecordingPolicy(VennScheduler(seed=24))
        sim = Simulator(
            devices, availability, jobs, policy,
            SimulationConfig(
                horizon=horizon, seed=24, vectorized_dispatch=vectorized
            ),
        )
        metrics = sim.run()
        outcomes.append(
            (policy.decision_hash, metrics_digest(metrics), sim.events_processed)
        )
        assert metrics.total_responses > 0
        assert isinstance(sim._device_profiles, DeviceFleet)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("vectorized", [False, True], ids=["reference", "fleet"])
def test_a_resumed_simulator_holds_the_same_fleet(cell, vectorized):
    """Both engines' snapshots carry the fleet's columns once, shared by
    the simulator and the policy's binding."""
    fleet, availability, jobs, horizon = cell
    sim = Simulator(
        fleet, availability, jobs, VennScheduler(seed=24),
        SimulationConfig(horizon=horizon, seed=24, vectorized_dispatch=vectorized),
    )
    resumed = Simulator.resume(sim.snapshot())
    assert resumed._device_profiles == fleet
    assert resumed._device_profiles is not fleet
    if not vectorized:
        # Bound at construction: one fleet in the payload, and the memo
        # hands the policy the simulator's.
        assert resumed.policy.fleet is resumed._device_profiles
