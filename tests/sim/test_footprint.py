"""Memory footprint gates that do not depend on the host (tier-1).

``peak_rss_mb`` is a benchmark metric, measured on whatever box runs it;
these tests pin the *structural* facts behind it with ``tracemalloc`` and
object identity, so a regression fails here before it shows as RSS:

* the device stream lives as three numpy event columns plus one bounded
  window of decoded rows — tens of bytes per static event, not the
  ~190–230 B/event of per-event Python objects (five lists of boxed values)
  it used to cost — and building it peaks at tens of bytes per event too;
* on the vectorized engine a device is its slot: the engine keeps arrays and
  no per-device Python object (no ``DeviceRuntime`` fleet, no profile list,
  no id -> slot or id -> signature dict, in the engine or its policy);
* a sampled population is a ``DeviceFleet``: five 8-byte values and one
  4-byte value per device, no ``DeviceProfile`` object, and one
  ``frozenset`` per distinct domain combination.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.baselines import make_policy
from repro.core.scheduler import VennScheduler
from repro.core.types import DeviceFleet
from repro.sim.engine import SimulationConfig, Simulator
from repro.traces.capacity import DEFAULT_DATA_DOMAINS, CapacitySampler
from repro.traces.device_trace import DAY, DiurnalAvailabilityModel, DiurnalConfig
from repro.traces.workloads import WorkloadConfig, WorkloadGenerator

N = 5_000

#: Budget for everything ``sim/stream.py`` holds at the end of a day, per
#: static event: 16 B of columns (time 8 + code 4 + slot 4) + the decode
#: window (1024 rows x ~290 B, ~17 B/event at this size) measured 33 B/event
#: (the 8 B per session of ``se_end`` is the trace's sorted end column and
#: traces under ``traces/device_trace.py``).  With five columns (33 B) and
#: the per-device signature dict it measured 58 B/event; the list
#: representation before that, 231 B/event.
MAX_STREAM_BYTES_PER_STATIC_EVENT = 48

#: Budget for the traced peak of building the stream, the signature ids and
#: the device arrays (``FleetSimulator._start``), per static event.  What
#: is alive at the build's high-water mark, per session (two events): the
#: sorted session columns (start 8, end 8), the slots (4), the interleaved
#: event times (16) and ``argsort``'s int64 order (16) beside its int32 copy
#: (8) — 60 B, 30 B/event — plus the retained device arrays, ~19 B/event at
#: 3.5 events a device.  Measured 48 B/event; the lexsort build with five
#: event columns, filtered copies and the signature dict measured 88.
MAX_BUILD_PEAK_BYTES_PER_STATIC_EVENT = 72

#: Budget for what ``sim/engine.py`` + ``sim/fleet.py`` + ``sim/vector.py``
#: hold per device at the end of a vectorized day: the state arrays (the
#: profiles and their id column are the caller's fleet).  Measured 17 B;
#: with the two per-device task counter lists as well, 31-33 B; with a
#: contiguous id copy and a by-slot signature list as well, 45 B; with a
#: list of profiles, 65 B; with the eager ``DeviceRuntime`` dict (172 B)
#: and the ``slot_of`` dict (116 B) as well, 303 B.
MAX_ENGINE_BYTES_PER_DEVICE = 30

#: Budget for what ``CapacitySampler.sample_devices`` returns, per device:
#: the fleet's records (device id, four scores 8 B each, domain id 4 B) are
#: 44 B, plus the shared domain sets (≈ 5 B a device at this size).
#: Measured 49 B; a list of ``DeviceProfile`` objects measured 219 B.
MAX_SAMPLED_BYTES_PER_DEVICE = 64


@pytest.fixture(scope="module")
def cell():
    devices = CapacitySampler(seed=3).sample_devices(N)
    availability = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=DAY), seed=4
    ).generate(N)
    jobs = WorkloadGenerator(
        WorkloadConfig(
            num_jobs=3, demand_scale=0.5, min_demand=5, max_demand=50,
            rounds_scale=0.5, max_rounds=5, mean_interarrival=600.0,
        ),
        seed=9,
    ).generate()
    return devices, availability, jobs


def simulator(cell, **overrides):
    return Simulator(
        *cell, VennScheduler(seed=1),
        SimulationConfig(horizon=DAY, seed=5, **overrides),
    )


def held_under(snapshot, *patterns):
    return sum(
        stat.size
        for pattern in patterns
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, pattern)]
        ).statistics("filename")
    )


@pytest.fixture(scope="module")
def traced_vectorized_day(cell):
    """Trace construction and the run (the stream is built inside run()), then
    count what the modules still hold (numpy buffers are traced too)."""
    tracemalloc.start()
    try:
        sim = simulator(cell, vectorized_dispatch=True)
        metrics = sim.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sim, metrics, snapshot


def test_static_stream_costs_columns_plus_a_window(traced_vectorized_day):
    sim, _metrics, snapshot = traced_vectorized_day
    static_events = sim._stream.st_len
    assert static_events > 3 * N  # a real day, not a degenerate trace
    assert (
        held_under(snapshot, "*/sim/stream.py") / static_events
        <= MAX_STREAM_BYTES_PER_STATIC_EVENT
    )
    # One identity column, the slot: a stream never holds the ids.
    assert not hasattr(sim._stream, "sa_dev")


def test_building_the_stream_peaks_at_tens_of_bytes_per_event(cell):
    sim = simulator(cell, vectorized_dispatch=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim._start()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    static_events = sim._stream.st_len
    assert static_events > 3 * N
    assert (peak - before) / static_events <= (
        MAX_BUILD_PEAK_BYTES_PER_STATIC_EVENT
    )


@pytest.fixture(scope="module")
def contended_cell(cell):
    """The cell's devices under the benchmark's contended recipe: demand is
    pending all day, so check-ins and consults reach the policy one at a
    time."""
    devices, availability, _jobs = cell
    jobs = WorkloadGenerator(
        WorkloadConfig(
            num_jobs=30, demand_scale=0.5, min_demand=5, max_demand=N // 10,
            rounds_scale=0.5, max_rounds=25, mean_interarrival=DAY / 60,
        ),
        seed=9,
    ).generate()
    return devices, availability, jobs


@pytest.fixture(scope="module")
def contended_day(contended_cell):
    sim = Simulator(
        *contended_cell, VennScheduler(seed=1),
        SimulationConfig(horizon=DAY, seed=5),
    )
    sim.run()
    return sim


def test_fleet_engine_keeps_no_per_device_dict(traced_vectorized_day, contended_day):
    """Signatures are ids into a table, bound to the policy with the fleet:
    nothing the fleet engine or its policy holds is a dict with an entry
    per device, on a light day and on a contended one."""
    for sim in (traced_vectorized_day[0], contended_day):
        holders = (sim, sim._vec, sim._stream, sim.policy)
        sizes = {
            (type(holder).__name__, name): len(value)
            for holder in holders
            for name, value in vars(holder).items()
            if isinstance(value, dict)
        }
        assert sizes and max(sizes.values()) < N // 10, sizes
        assert sim.policy.fleet is sim._vec.profiles


def test_vectorized_engine_holds_no_per_device_objects(cell, traced_vectorized_day):
    sim, metrics, snapshot = traced_vectorized_day
    # The profiles are the caller's fleet itself: no copy, no list.
    assert sim._vec.profiles is cell[0]
    assert (
        held_under(
            snapshot, "*/sim/engine.py", "*/sim/fleet.py", "*/sim/vector.py"
        ) / N
        <= MAX_ENGINE_BYTES_PER_DEVICE
    )
    # No runtimes at all: the reference engine's device state.
    assert not hasattr(sim, "_devices")
    assert metrics.total_responses > 0


def test_a_sampled_population_holds_columns_only():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        devices = CapacitySampler(seed=3).sample_devices(N)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(devices) == N
    assert held / N <= MAX_SAMPLED_BYTES_PER_DEVICE


def test_sampled_devices_share_domain_sets():
    devices = CapacitySampler(seed=7).sample_devices(N)
    distinct = {id(d.data_domains) for d in devices}
    assert len(distinct) <= 2 ** len(DEFAULT_DATA_DOMAINS) == 64
    assert len(distinct) == len({d.data_domains for d in devices})


@pytest.mark.parametrize("policy_name", ["random", "fifo", "srsf", "venn"])
def test_fleet_engine_builds_no_profile(contended_cell, policy_name, monkeypatch):
    """Hooks take device ids, policies read their bound columns and the
    outcome draw reads the fleet's: a fleet-engine day builds no
    ``DeviceProfile`` (it used to build one per consulted check-in)."""
    sim = Simulator(
        *contended_cell, make_policy(policy_name, seed=1),
        SimulationConfig(horizon=DAY, seed=5),
    )
    builds = []
    build = DeviceFleet.__getitem__

    def counted(fleet, i):
        if not isinstance(i, slice):
            builds.append(i)
        return build(fleet, i)

    monkeypatch.setattr(DeviceFleet, "__getitem__", counted)
    metrics = sim.run()
    assert metrics.total_responses > 100
    assert len(builds) == 0
