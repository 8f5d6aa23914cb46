"""Memory footprint gates that do not depend on the host (tier-1).

``peak_rss_mb`` is a benchmark metric, measured on whatever box runs it;
these tests pin the two *structural* facts behind it with ``tracemalloc``
and object identity, so a regression fails here before it shows as RSS:

* a shard's static stream lives as numpy columns plus one bounded window of
  decoded rows — tens of bytes per static event, not the ~190–230 B/event of
  per-event Python objects (five lists of boxed values) it used to cost;
* sampled devices share one ``frozenset`` per distinct domain combination.
"""

from __future__ import annotations

import tracemalloc

from repro.core.scheduler import VennScheduler
from repro.sim.engine import SimulationConfig, Simulator
from repro.traces.capacity import DEFAULT_DATA_DOMAINS, CapacitySampler
from repro.traces.device_trace import DAY, DiurnalAvailabilityModel, DiurnalConfig
from repro.traces.workloads import WorkloadConfig, WorkloadGenerator

N = 5_000

#: Budget for everything ``sim/shard.py`` holds at the end of a day, per
#: static event: 33 B of columns (8 + 8 + 8 + 8 + 1) + the decode window
#: (1024 rows x ~220 B, ~13 B/event at this size) + the per-device signature
#: dict (~8 B/event) measured 58 B/event; the list representation measured
#: 231 B/event on the same cell.
MAX_SHARD_BYTES_PER_STATIC_EVENT = 96


def test_static_stream_costs_columns_plus_a_window():
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
    sim = Simulator(
        devices, availability, jobs, VennScheduler(seed=1),
        SimulationConfig(horizon=DAY, seed=5, vectorized_dispatch=True),
    )
    # Shards are built inside run(): trace the run, then count what
    # sim/shard.py still holds (numpy buffers are traced too).
    tracemalloc.start()
    try:
        sim.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(
        stat.size
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/sim/shard.py")]
        ).statistics("filename")
    )
    static_events = sum(shard.st_len for shard in sim._shards)
    assert static_events > 3 * N  # a real day, not a degenerate trace
    assert held / static_events <= MAX_SHARD_BYTES_PER_STATIC_EVENT
    # One shard: the shard's runtimes *are* the coordinator's dict.
    assert sim._shards[0].runtimes is sim.devices


def test_sampled_devices_share_domain_sets():
    devices = CapacitySampler(seed=7).sample_devices(N)
    distinct = {id(d.data_domains) for d in devices}
    assert len(distinct) <= 2 ** len(DEFAULT_DATA_DOMAINS) == 64
    assert len(distinct) == len({d.data_domains for d in devices})
