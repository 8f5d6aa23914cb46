"""Indexed dispatch structures for the simulation engine's check-in fast path.

The seed engine kept two O(n) scans on its hot path:

* ``_has_unsatisfied_request`` walked every job to decide whether dispatching
  was worthwhile, and
* ``_dispatch_idle_devices`` walked *every idle device* — including devices
  that had already spent their one-job-per-day budget or could never satisfy
  any pending requirement — offering each to the policy.

At million-device scale the second scan dominates everything: each request
arrival could trigger a full sweep over the idle population.  This module
provides the two indexed replacements:

:class:`PendingRequestPool`
    O(1) bookkeeping of which jobs currently have open, unsatisfied
    requests, plus a multiset of their requirement names so dispatch knows
    which device signatures are worth visiting.

:class:`IdleDevicePool`
    Idle devices bucketed by eligibility-atom signature, each bucket a
    device-id min-heap, so dispatch visits devices in deterministic
    ascending-id order *restricted to signatures that intersect a pending
    requirement*.  Devices that exhausted the one-job-per-day budget are
    parked on a calendar heap and promoted back automatically once their
    blackout day ends, so they cost nothing while ineligible.

Both structures are pure bookkeeping: they never decide *which* request a
device serves (the policy does), and they offer devices in the ascending-id
order of the scans they replaced — the golden regression tests pin the
resulting assignment sequences.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .device import day_index


class PendingRequestPool:
    """Tracks jobs with open, unsatisfied resource requests in O(1)."""

    def __init__(self) -> None:
        #: job_id -> requirement name, for unsatisfied open requests.
        self._jobs: Dict[int, str] = {}
        #: Multiset of pending requirement names.
        self._req_counts: Counter = Counter()
        #: Bumped whenever the *set* of pending requirement names changes.
        #: Dispatch compares this instead of materialising (and comparing)
        #: a fresh name set per visited device.
        self.names_version: int = 0

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def add(self, job_id: int, requirement_name: str) -> None:
        """A request opened (or re-opened) with unmet demand."""
        old = self._jobs.get(job_id)
        if old == requirement_name:
            return  # re-open under the same name: multiset unchanged
        if old is not None:
            self.remove(job_id)
        self._jobs[job_id] = requirement_name
        if self._req_counts[requirement_name] == 0:
            self.names_version += 1
        self._req_counts[requirement_name] += 1

    def remove(self, job_id: int) -> None:
        """The job's request was fully assigned or reached a terminal state."""
        name = self._jobs.pop(job_id, None)
        if name is None:
            return
        self._req_counts[name] -= 1
        if self._req_counts[name] <= 0:
            del self._req_counts[name]
            self.names_version += 1

    def pending_requirements(self) -> Set[str]:
        """Requirement names with at least one unsatisfied request."""
        return set(self._req_counts)


class IdleDevicePool:
    """Idle devices bucketed by atom signature for targeted dispatch.

    Bucket heaps are lazy: every entry is validated against the
    active-membership dict at pop time, so stale entries (devices that went
    busy or offline since being pushed) are discarded then.
    """

    def __init__(self) -> None:
        #: device_id -> signature, for devices available to dispatch now.
        self._active: Dict[int, FrozenSet[str]] = {}
        #: signature -> min-heap of device ids (lazy entries).
        self._buckets: Dict[FrozenSet[str], List[int]] = {}
        #: device_id -> (signature, first eligible day) for daily-spent devices.
        self._parked: Dict[int, Tuple[FrozenSet[str], int]] = {}
        #: (eligible_day, device_id) promotion min-heap (lazy entries).
        self._parked_heap: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def add(self, device_id: int, signature: FrozenSet[str]) -> None:
        """Make an idle, dispatchable device visible to the pool."""
        self._parked.pop(device_id, None)
        if device_id in self._active:
            return
        self._active[device_id] = signature
        bucket = self._buckets.get(signature)
        if bucket is None:
            bucket = self._buckets[signature] = []
        heapq.heappush(bucket, device_id)

    def park(self, device_id: int, signature: FrozenSet[str],
             eligible_day: int) -> None:
        """Bench an idle device until ``eligible_day`` (daily limit spent)."""
        self._active.pop(device_id, None)
        self._parked[device_id] = (signature, eligible_day)
        heapq.heappush(self._parked_heap, (eligible_day, device_id))

    def unpark(self, device_id: int) -> None:
        """Lift a parking early (the device's round aborted, budget refunded)."""
        entry = self._parked.pop(device_id, None)
        if entry is not None:
            self.add(device_id, entry[0])

    def discard(self, device_id: int) -> None:
        """Remove a device entirely (went busy or offline)."""
        self._active.pop(device_id, None)
        self._parked.pop(device_id, None)

    def promote(self, now: float) -> None:
        """Return parked devices whose blackout day has ended to dispatch."""
        heap = self._parked_heap
        # Must match DeviceRuntime's day accounting exactly (see day_index):
        # if promote() thought a boundary timestamp was "tomorrow" while
        # participated_today() said "today", a parked device would be
        # promoted and then re-parked on every dispatch sweep.
        today = day_index(now)
        while heap and heap[0][0] <= today:
            _, device_id = heapq.heappop(heap)
            entry = self._parked.get(device_id)
            if entry is not None and entry[1] <= today:
                self._parked.pop(device_id)
                self.add(device_id, entry[0])

    def __contains__(self, device_id: int) -> bool:
        return device_id in self._active or device_id in self._parked

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def dispatch(
        self,
        pending_pool: PendingRequestPool,
        now: float,
        visit: Callable[[int], None],
    ) -> None:
        """Offer candidate devices to ``visit`` in ascending device-id order.

        Only buckets whose signature intersects the pending requirement
        names are visited — devices that cannot satisfy any pending
        requirement are never touched.  ``visit`` offers one device to the
        policy; whether the pending *name set* changed afterwards is
        detected through ``pending_pool.names_version`` (an int compare per
        visit, instead of materialising and comparing a fresh set).  Demand
        can only shrink while dispatching (responses and deadlines are
        future events), so when a requirement drops out the bucket list is
        re-filtered and the remaining sweep narrows to signatures that can
        still serve something — e.g. once the general jobs fill, a million
        general-only devices are no longer walked in search of the last
        high-performance stragglers.  Devices that remain active after
        being visited are re-queued for future dispatches; each device is
        visited at most once per call.
        """
        self.promote(now)
        active = self._active
        pending = pending_pool.pending_requirements()
        version = pending_pool.names_version

        def eligible_buckets() -> List[List[int]]:
            return [
                bucket
                for signature, bucket in self._buckets.items()
                if signature & pending
            ]

        buckets = eligible_buckets()
        revisit: List[int] = []
        seen: Set[int] = set()
        while pending:
            best: Optional[List[int]] = None
            for bucket in buckets:
                # Drop stale heads so the head comparison sees live devices.
                while bucket and (bucket[0] not in active or bucket[0] in seen):
                    heapq.heappop(bucket)
                if bucket and (best is None or bucket[0] < best[0]):
                    best = bucket
            if best is None:
                break
            device_id = heapq.heappop(best)
            # A discard-then-re-add can leave duplicate heap entries; the
            # ``seen`` set guarantees each device is visited at most once.
            seen.add(device_id)
            visit(device_id)
            if device_id in active:
                revisit.append(device_id)
            if pending_pool.names_version != version:
                version = pending_pool.names_version
                pending = pending_pool.pending_requirements()
                buckets = eligible_buckets()
        for device_id in revisit:
            signature = active.get(device_id)
            if signature is not None:
                heapq.heappush(self._buckets[signature], device_id)


__all__ = ["IdleDevicePool", "PendingRequestPool"]
