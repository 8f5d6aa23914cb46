"""Shard-fault runs held by invariants, not by a twin.

``kill_shard`` / ``stall_shard`` / ``drop_plan_broadcast`` need shards, so
the single-queue reference engine cannot host them and there is no second
engine to compare a faulted run against.  What a faulted run must still
satisfy is stated here as executable predicates over what the run leaves
behind — the recorded assignments and their requests, ``shard_stats()`` /
``fault_stats()``, the shard heaps and the final device arrays:

* every assignment yields exactly one response (delivered, or still queued);
* a slot is busy iff exactly one queued response names it, on its own shard;
* a shard's stream cursor accounts for every static event, processed or
  skipped by an outage;
* a device gets a second task in one calendar day only after a refund;
* the same plan twice gives the same run.

Two cells: the sparse shuffled-id cell of ``tests/sim/test_sparse_device_ids.py``
(a slot is not an id; rounds abort) and the deterministic-latency cell of
``tests/sim/test_refund_eviction.py`` (whole rounds answer on one
timestamp, so ``kill_until`` builds the longest same-time response runs).
Each predicate was checked to fail under a one-line mutation of the handler
it guards (``docs/RESILIENCE.md`` § Fault invariants lists them).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.core.baselines import make_policy
from repro.core.types import RequestState
from repro.resilience import FaultPlan, FaultSpec, RecordingPolicy, metrics_digest
from repro.sim.device import day_index
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.latency import LatencyConfig
from repro.sim.vector import STATUS_BUSY
from tests.sim.test_engine import DETERMINISTIC_LATENCY
from tests.sim.test_refund_eviction import contended_scenario
from tests.sim.test_sparse_device_ids import HORIZON as SPARSE_HORIZON
from tests.sim.test_sparse_device_ids import sparse_cell

#: name -> (environment builder, horizon, latency, (kill, stall, drop) events)
CELLS = {
    "sparse-ids": (
        sparse_cell, SPARSE_HORIZON,
        LatencyConfig(compute_sigma=0.3, comm_min=5.0, comm_max=20.0),
        (100, 200, 60),
    ),
    "same-timestamp": (
        # ~120 events in all: always-on devices, so no static event to skip.
        contended_scenario, 30_000.0, DETERMINISTIC_LATENCY, (20, 45, 8),
    ),
}


class RequestRecorder(RecordingPolicy):
    """Also keeps the request object behind every recorded assignment."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.assigned = []  # (now, device_id, request)

    def assign(self, device, now):
        out = super().assign(device, now)
        if out is not None:
            self.assigned.append((now, device.device_id, out))
        return out

    def assign_batch_bulk(self, devices, now):
        consumed, proposals = super().assign_batch_bulk(devices, now)
        for i, request in proposals:
            self.assigned.append((now, devices[i].device_id, request))
        return consumed, proposals


def faulted_run(cell_name: str, num_shards: int) -> Simulator:
    build, horizon, latency, (kill_at, stall_at, drop_at) = CELLS[cell_name]
    devices, trace, jobs = build()
    plan = FaultPlan(
        (
            FaultSpec("drop_plan_broadcast", drop_at, shard=1, backoff=300.0),
            FaultSpec("kill_shard", kill_at, shard=0, duration=1_500.0),
            FaultSpec("stall_shard", stall_at, shard=num_shards - 1, duration=800.0),
        )
    )
    config = SimulationConfig(
        horizon=horizon, seed=9, latency=latency, enforce_daily_limit=True,
        num_shards=num_shards, fault_plan=plan,
    )
    policy = RequestRecorder(make_policy("venn", seed=3))
    sim = Simulator(devices, trace, jobs, policy, config)
    sim.run()  # again on a finished run: returns the final metrics
    return sim


@pytest.fixture(
    scope="module",
    params=[(cell, n) for cell in CELLS for n in (2, 4)],
    ids=lambda p: f"{p[0]}-x{p[1]}",
)
def sim(request) -> Simulator:
    return faulted_run(*request.param)


def test_every_fault_really_bit(sim):
    stats = sim.fault_stats()
    assert stats["faults_fired"] == 3
    assert stats["shard_responses_failed_by_fault"] >= 1
    assert stats["shard_responses_delayed_by_fault"] >= 1
    assert stats["shard_broadcasts_dropped"] == stats["shard_plan_rebroadcasts"] == 1
    assert sim.run().total_responses > 40  # and the run went on


def test_every_assignment_yields_exactly_one_response(sim):
    assignments = len(sim.policy.decisions)
    queued = sum(len(shard.heap) for shard in sim._shards)
    assert assignments > 60
    assert (
        sim.run().total_responses + sim.run().total_failures + queued
        == assignments
    )
    # ... shard by shard (an assignment goes to, and is answered by, the
    # shard owning the device's *id*), and request by request.
    owner = Counter(
        device_id % len(sim._shards) for _t, device_id, _r in sim.policy.assigned
    )
    for shard, stats in zip(sim._shards, sim.shard_stats()):
        assert stats["assignments_received"] == owner[shard.index]
        assert (
            stats["responses"] + stats["failures"] + len(shard.heap)
            == stats["assignments_received"]
        )
    requests = {id(r): r for _t, _d, r in sim.policy.assigned}.values()
    assert sum(r.in_flight for r in requests) == queued
    assert all(r.in_flight >= 0 for r in requests)


def test_a_slot_is_busy_iff_one_queued_response_names_it(sim):
    vec = sim._vec
    queued = Counter()
    for shard in sim._shards:
        for _time, _seq, slot, _request, _job, _success in shard.heap:
            queued[slot] += 1
            assert vec.ids[slot] % len(sim._shards) == shard.index
    assert set(queued.values()) <= {1}
    assert sorted(queued) == np.nonzero(vec.status == STATUS_BUSY)[0].tolist()


def test_stream_cursor_accounts_for_every_static_event(sim, request):
    if request.node.callspec.params["sim"][0] == "sparse-ids":
        assert sim.fault_stats()["shard_static_skipped"] >= 1
    for shard, stats in zip(sim._shards, sim.shard_stats()):
        assert shard.cursor == (
            stats["events_processed"] - stats["responses"] - stats["failures"]
            + stats["static_skipped"]
        )
        assert 0 <= shard.cursor <= shard.st_len


def test_second_task_in_a_day_only_after_a_refund(sim):
    """The daily budget comes back only when the earlier round was aborted,
    or closed without this device's report (a straggler)."""
    by_device = defaultdict(list)
    for now, device_id, request in sim.policy.assigned:
        by_device[device_id].append((now, request))
    repeats = 0
    for device_id, tasks in by_device.items():
        for (t1, first), (t2, _second) in zip(tasks, tasks[1:]):
            if day_index(t1) != day_index(t2):
                continue
            repeats += 1
            assert first.close_time is not None and first.close_time <= t2
            assert (
                first.state is RequestState.ABORTED
                or device_id not in first.responses
            )
    assert repeats >= 1  # the refund path ran, so the rule was exercised


def test_same_plan_twice_gives_the_same_run(sim, request):
    cell_name, num_shards = request.node.callspec.params["sim"]
    again = faulted_run(cell_name, num_shards)
    assert again.policy.decisions == sim.policy.decisions
    assert metrics_digest(again.run()) == metrics_digest(sim.run())
    assert again.events_processed == sim.events_processed
    assert again.fault_stats() == sim.fault_stats()
    assert again.shard_stats() == sim.shard_stats()
