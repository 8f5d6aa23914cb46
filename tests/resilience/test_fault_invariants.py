"""Stream-fault runs held by invariants, not by a twin.

``kill_shard`` / ``stall_shard`` act on the fleet engine's device stream,
so the single-queue reference engine cannot host them and there is no
second engine to compare a faulted run against.  What a faulted run must
still satisfy is stated here as executable predicates over what the run
leaves behind — the recorded assignments and their requests, the metrics
counters, ``fault_stats()``, the response heap and the final device arrays:

* every assignment yields exactly one response (delivered, or still queued);
* a slot is busy iff exactly one queued response names it;
* the stream cursor accounts for every static event, processed or skipped
  by an outage;
* a device gets a second task in one calendar day only after a refund;
* the same plan twice gives the same run.

Two environments: the sparse shuffled-id cell of
``tests/sim/test_sparse_device_ids.py`` (a slot is not an id; rounds abort)
and the deterministic-latency cell of ``tests/sim/test_refund_eviction.py``
(whole rounds answer on one timestamp, so ``kill_until`` builds the longest
same-time response runs).  Each runs a kill-then-stall plan and a second
outage layout: on the sparse cell a kill at the first boundary and a
shorter re-kill inside a live outage (which must not shorten it), on the
same-timestamp cell a stall and a kill firing at one boundary (the kill
fails what the stall delayed).
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

SPARSE_LATENCY = LatencyConfig(compute_sigma=0.3, comm_min=5.0, comm_max=20.0)

#: name -> (environment builder, horizon, latency, faults as
#: ``(kind, at_event, duration)`` in declaration order)
CELLS = {
    "sparse-ids": (
        sparse_cell, SPARSE_HORIZON, SPARSE_LATENCY,
        (("kill_shard", 100, 1_500.0), ("stall_shard", 200, 800.0)),
    ),
    "sparse-ids-rekilled": (
        sparse_cell, SPARSE_HORIZON, SPARSE_LATENCY,
        (
            ("kill_shard", 0, 1_500.0),
            ("kill_shard", 100, 3_000.0),
            ("kill_shard", 100, 1_500.0),  # inside the live outage
            ("stall_shard", 200, 800.0),
        ),
    ),
    "same-timestamp": (
        # ~120 events in all: always-on devices, so no static event to skip.
        contended_scenario, 30_000.0, DETERMINISTIC_LATENCY,
        (("kill_shard", 20, 1_500.0), ("stall_shard", 45, 800.0)),
    ),
    "same-timestamp-stall-then-kill": (
        contended_scenario, 30_000.0, DETERMINISTIC_LATENCY,
        (("stall_shard", 20, 800.0), ("kill_shard", 20, 1_500.0)),
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


def faulted_run(cell_name: str) -> Simulator:
    build, horizon, latency, faults = CELLS[cell_name]
    devices, trace, jobs = build()
    plan = FaultPlan(tuple(FaultSpec(*fault) for fault in faults))
    config = SimulationConfig(
        horizon=horizon, seed=9, latency=latency, enforce_daily_limit=True,
        vectorized_dispatch=True, fault_plan=plan,
    )
    policy = RequestRecorder(make_policy("venn", seed=3))
    sim = Simulator(devices, trace, jobs, policy, config)
    sim.run()  # again on a finished run: returns the final metrics
    return sim


@pytest.fixture(scope="module", params=list(CELLS))
def sim(request) -> Simulator:
    return faulted_run(request.param)


def test_every_fault_really_bit(sim):
    stats = sim.fault_stats()
    assert stats["faults_fired"] == len(sim.config.fault_plan.faults) >= 2
    assert stats["shards_killed"] >= 1 and stats["shards_stalled"] >= 1
    assert stats["shard_responses_failed_by_fault"] >= 1
    assert stats["shard_responses_delayed_by_fault"] >= 1
    assert sim.run().total_responses > 40  # and the run went on


def test_every_assignment_yields_exactly_one_response(sim):
    assignments = len(sim.policy.decisions)
    queued = len(sim._shard.heap)
    metrics = sim.run()
    assert assignments > 60
    assert len(sim.policy.assigned) == assignments
    assert metrics.total_responses + metrics.total_failures + queued == assignments
    # ... and request by request.
    requests = {id(r): r for _t, _d, r in sim.policy.assigned}.values()
    assert sum(r.in_flight for r in requests) == queued
    assert all(r.in_flight >= 0 for r in requests)


def test_a_slot_is_busy_iff_one_queued_response_names_it(sim):
    vec = sim._vec
    queued = Counter(slot for _t, _seq, slot, _r, _j, _s in sim._shard.heap)
    assert set(queued.values()) <= {1}
    assert sorted(queued) == np.nonzero(vec.status == STATUS_BUSY)[0].tolist()


def test_stream_cursor_accounts_for_every_static_event(sim, request):
    """Every processed event is a static one, a response or failure, a job
    arrival or an abort (the only deadline events that are not cancelled);
    the static ones plus the outage's skips are the cursor."""
    stats = sim.fault_stats()
    if request.node.callspec.params["sim"].startswith("sparse-ids"):
        assert stats["shard_static_skipped"] >= 1
    metrics = sim.run()
    arrivals = sum(
        1 for j in sim.jobs.values() if j.spec.arrival_time <= sim.config.horizon
    )
    static = (
        sim.events_processed - metrics.total_responses - metrics.total_failures
        - metrics.total_aborts - arrivals
    )
    shard = sim._shard
    assert shard.cursor == static + stats["shard_static_skipped"]
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
    again = faulted_run(request.node.callspec.params["sim"])
    assert again.policy.decisions == sim.policy.decisions
    assert metrics_digest(again.run()) == metrics_digest(sim.run())
    assert again.events_processed == sim.events_processed
    assert again.fault_stats() == sim.fault_stats()
    assert again._shard.cursor == sim._shard.cursor
