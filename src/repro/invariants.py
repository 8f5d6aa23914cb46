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
  second task in one calendar day only after a refund;
* :func:`check_round_closes` — every successful round reaches the policy
  exactly once, already ``COMPLETED``, and the policy's round count
  follows the job.

Each returns how much it checked, so a caller can require that a run
exercised it; :func:`check_run` runs all five.  A violation raises
:class:`InvariantViolation`.  Each predicate fails under a one-line
mutation of the handler it guards (``docs/RESILIENCE.md`` § Run
invariants lists them).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core.types import RequestState, ResourceRequest
from .resilience.record import RecordingPolicy
from .sim.device import day_index
from .sim.fleet import FleetSimulator
from .sim.vector import STATUS_BUSY


class InvariantViolation(AssertionError):
    """A finished run broke one of this module's invariants."""


class AssignmentLog(RecordingPolicy):
    """A :class:`RecordingPolicy` that also keeps the request behind every
    assignment, as ``(now, device_id, request)`` in decision order — the
    engine forgets closed requests, the invariants need them — and what
    every ``on_request_closed`` call showed the policy, as ``(request,
    state, response_collection_time)`` read inside the hook."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.assigned: List[Tuple[float, int, ResourceRequest]] = []
        self.closed: List[
            Tuple[ResourceRequest, RequestState, Optional[float]]
        ] = []

    def assign(self, device_id, now):
        out = super().assign(device_id, now)
        if out is not None:
            self.assigned.append((now, device_id, out))
        return out

    def assign_batch_bulk(self, device_ids, now):
        consumed, proposals = super().assign_batch_bulk(device_ids, now)
        for i, request in proposals:
            self.assigned.append((now, device_ids[i], request))
        return consumed, proposals

    def on_request_closed(self, request, now):
        self.closed.append(
            (request, request.state, request.response_collection_time)
        )
        self._inner.on_request_closed(request, now)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _finished_fleet_run(sim):
    if not isinstance(sim, FleetSimulator) or not sim._finished:
        raise ValueError(
            "the run invariants read a finished fleet-engine run "
            "(SimulationConfig(vectorized_dispatch=True), after run())"
        )
    return sim._stream, sim._vec, sim._metrics


def check_responses(sim, log: AssignmentLog) -> int:
    """Every assignment yields exactly one response: delivered as a success
    or a failure, or still queued on the response heap — over the run, and
    request by request (a request's ``in_flight`` is what is still queued
    for it).  Returns the number of assignments."""
    stream, _vec, metrics = _finished_fleet_run(sim)
    assignments = len(log.assigned)
    _require(
        len(log.decisions) == assignments,
        f"{len(log.decisions)} decisions recorded, {assignments} logged",
    )
    delivered = metrics.total_responses + metrics.total_failures
    queued = len(stream.heap)
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
    stream, vec, _metrics = _finished_fleet_run(sim)
    queued = Counter(row[2] for row in stream.heap)
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
    stream, _vec, metrics = _finished_fleet_run(sim)
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
        stream.cursor == static,
        f"stream cursor {stream.cursor}, but {static} static events processed",
    )
    _require(
        0 <= stream.cursor <= stream.st_len,
        f"stream cursor {stream.cursor} outside [0, {stream.st_len}]",
    )
    return stream.cursor


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


def check_round_closes(sim, log: AssignmentLog) -> int:
    """Every successful round reaches the policy exactly once, and as
    ``COMPLETED`` with its collection time — the hook runs after the round
    is marked, so the policy can learn from it — and every other close is
    an abort.  For every job that arrived and did not finish, the policy's
    ``rounds_completed`` equals the job's completed rounds.  Returns the
    number of successful rounds."""
    _finished_fleet_run(sim)
    seen: Counter = Counter()
    for request, state, collection_time in log.closed:
        if state is RequestState.COMPLETED:
            _require(
                collection_time is not None,
                f"request {request.request_id} closed as COMPLETED without "
                f"a collection time",
            )
            seen[request.job_id, request.round_index] += 1
        else:
            _require(
                state is RequestState.ABORTED,
                f"request {request.request_id} (job {request.job_id}, round "
                f"{request.round_index}) reached the policy {state.name}",
            )
    completed = Counter(
        (job.job_id, record.round_index)
        for job in sim.jobs.values()
        for record in job.rounds
        if record.completed
    )
    _require(
        seen == completed,
        f"{sum(completed.values())} rounds completed, but the policy saw "
        f"{sum(seen.values())} completed closes (first difference: "
        f"{sorted((completed - seen) + (seen - completed))[:3]})",
    )
    horizon = sim.config.horizon
    for job in sim.jobs.values():
        if job.is_finished or job.spec.arrival_time > horizon:
            continue
        done = log.rounds_completed.get(job.job_id)
        _require(
            done == job.rounds_completed,
            f"job {job.job_id} completed {job.rounds_completed} rounds, "
            f"the policy counts {done}",
        )
    return sum(completed.values())


def check_run(sim, log: AssignmentLog) -> Dict[str, int]:
    """Run every invariant; returns what each one checked."""
    return {
        "assignments": check_responses(sim, log),
        "busy_slots": check_busy_slots(sim),
        "static_events": check_stream_cursor(sim),
        "same_day_repeats": check_daily_budget(sim, log),
        "completed_rounds": check_round_closes(sim, log),
    }


__all__ = [
    "AssignmentLog",
    "InvariantViolation",
    "check_busy_slots",
    "check_daily_budget",
    "check_responses",
    "check_round_closes",
    "check_run",
    "check_stream_cursor",
]
