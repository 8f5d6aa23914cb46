"""Executable invariants of a finished fleet-engine run.

Twin identity (the goldens, the engine matrix, the fuzzer) proves the fleet
engine equals the single-queue reference; it does not prove either of them
right.  The predicates here state what any finished fleet run must satisfy,
read from what the run leaves behind — the assignments an
:class:`AssignmentLog` recorded with their requests, the metrics counters,
the response heap, the stream cursor and the final device arrays — with no
second run to compare against:

* :func:`check_responses` — every assignment yields exactly one response
  (delivered, or still queued), over the run and request by request;
* :func:`check_busy_slots` — at the end a slot is busy iff exactly one
  queued response names it;
* :func:`check_stream_cursor` — the stream cursor accounts for every
  processed static event;
* :func:`check_daily_budget` — under the daily limit a device gets a
  second task in one calendar day only after a refund.

Each returns how much it checked, so a caller can require that a run
exercised it; :func:`check_run` runs all four.  A violation raises
:class:`InvariantViolation`.  Each predicate fails under a one-line
mutation of the handler it guards (``docs/RESILIENCE.md`` § Run
invariants lists them).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Tuple

import numpy as np

from .core.types import RequestState, ResourceRequest
from .resilience.record import RecordingPolicy
from .sim.device import day_index
from .sim.vector import STATUS_BUSY


class InvariantViolation(AssertionError):
    """A finished run broke one of this module's invariants."""


class AssignmentLog(RecordingPolicy):
    """A :class:`RecordingPolicy` that also keeps the request behind every
    assignment, as ``(now, device_id, request)`` in decision order — the
    engine forgets closed requests, the invariants need them."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.assigned: List[Tuple[float, int, ResourceRequest]] = []

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


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _finished_fleet_run(sim):
    if sim._shard is None or not sim._finished:
        raise ValueError(
            "the run invariants read a finished fleet-engine run "
            "(SimulationConfig(vectorized_dispatch=True), after run())"
        )
    return sim._shard, sim._vec, sim._metrics


def check_responses(sim, log: AssignmentLog) -> int:
    """Every assignment yields exactly one response: delivered as a success
    or a failure, or still queued on the response heap — over the run, and
    request by request (a request's ``in_flight`` is what is still queued
    for it).  Returns the number of assignments."""
    shard, _vec, metrics = _finished_fleet_run(sim)
    assignments = len(log.assigned)
    _require(
        len(log.decisions) == assignments,
        f"{len(log.decisions)} decisions recorded, {assignments} logged",
    )
    delivered = metrics.total_responses + metrics.total_failures
    queued = len(shard.heap)
    _require(
        delivered + queued == assignments,
        f"{assignments} assignments, but {delivered} responses delivered "
        f"and {queued} queued",
    )
    requests = {id(r): r for _t, _d, r in log.assigned}.values()
    negative = [r.request_id for r in requests if r.in_flight < 0]
    _require(not negative, f"requests {negative[:5]} have in_flight < 0")
    in_flight = sum(r.in_flight for r in requests)
    _require(
        in_flight == queued,
        f"requests count {in_flight} responses in flight, {queued} queued",
    )
    return assignments


def check_busy_slots(sim) -> int:
    """At the end of the run a slot is ``STATUS_BUSY`` iff exactly one
    queued response names it.  Returns the number of busy slots."""
    shard, vec, _metrics = _finished_fleet_run(sim)
    queued = Counter(row[2] for row in shard.heap)
    twice = sorted(slot for slot, n in queued.items() if n > 1)
    _require(not twice, f"slots {twice[:5]} have several queued responses")
    busy = np.flatnonzero(vec.status == STATUS_BUSY).tolist()
    _require(
        sorted(queued) == busy,
        f"busy slots {busy[:5]}… (of {len(busy)}) against slots with a "
        f"queued response {sorted(queued)[:5]}… (of {len(queued)})",
    )
    return len(busy)


def check_stream_cursor(sim) -> int:
    """Every processed event is a static one, a response (delivered as a
    success or a failure), a job arrival or a round abort — the only
    deadline events the loop processes, since a completed round cancels
    its deadline — so the static ones are exactly the stream cursor.
    Returns the cursor."""
    shard, _vec, metrics = _finished_fleet_run(sim)
    horizon = sim.config.horizon
    arrivals = sum(
        1 for job in sim.jobs.values() if job.spec.arrival_time <= horizon
    )
    static = (
        sim.events_processed
        - metrics.total_responses
        - metrics.total_failures
        - metrics.total_aborts
        - arrivals
    )
    _require(
        shard.cursor == static,
        f"stream cursor {shard.cursor}, but {static} static events processed",
    )
    _require(
        0 <= shard.cursor <= shard.st_len,
        f"stream cursor {shard.cursor} outside [0, {shard.st_len}]",
    )
    return shard.cursor


def check_daily_budget(sim, log: AssignmentLog) -> int:
    """Under ``enforce_daily_limit`` a device gets a second task in one
    calendar day only if its earlier round was aborted, or closed without
    its report (a straggler), before the second assignment.  Returns the
    number of same-day repeats checked (0 without the limit)."""
    _finished_fleet_run(sim)
    if not sim.config.enforce_daily_limit:
        return 0
    by_device: Dict[int, List[Tuple[float, ResourceRequest]]] = defaultdict(list)
    for now, device_id, request in log.assigned:
        by_device[device_id].append((now, request))
    repeats = 0
    for device_id, tasks in by_device.items():
        for (t1, first), (t2, _second) in zip(tasks, tasks[1:]):
            if day_index(t1) != day_index(t2):
                continue
            repeats += 1
            refunded = (
                first.close_time is not None
                and first.close_time <= t2
                and (
                    first.state is RequestState.ABORTED
                    or device_id not in first.responses
                )
            )
            _require(
                refunded,
                f"device {device_id} got a second task at t={t2} on the "
                f"day of its task at t={t1} (request {first.request_id}, "
                f"{first.state.name}) without a refund",
            )
    return repeats


def check_run(sim, log: AssignmentLog) -> Dict[str, int]:
    """Run every invariant; returns what each one checked."""
    return {
        "assignments": check_responses(sim, log),
        "busy_slots": check_busy_slots(sim),
        "static_events": check_stream_cursor(sim),
        "same_day_repeats": check_daily_budget(sim, log),
    }


__all__ = [
    "AssignmentLog",
    "InvariantViolation",
    "check_busy_slots",
    "check_daily_budget",
    "check_responses",
    "check_run",
    "check_stream_cursor",
]
