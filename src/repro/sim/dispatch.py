"""Which jobs have open, unsatisfied resource requests.

:class:`PendingRequestPool` is the engines' O(1) answer to "is any request
still short of devices, and for which requirements?" — instead of
re-deriving it by scanning every job.  It keeps the jobs with unmet demand
and a multiset of their requirement names; ``names_version`` moves only
when the *set* of pending names changes, so a dispatch sweep can notice
that a requirement filled with one int compare per offer.  Both engines
stop consulting the policy once the pool is empty and narrow a sweep when
its version moves.  It is pure bookkeeping: the policy decides which
request a device serves.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Set


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


__all__ = ["PendingRequestPool"]
