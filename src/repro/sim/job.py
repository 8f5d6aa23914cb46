"""Per-job runtime state: rounds, requests, retries and completion."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.types import JobSpec, JobState, RequestState, ResourceRequest


@dataclass(slots=True)
class RoundRecord:
    """Outcome of one (possibly retried) training round."""

    round_index: int
    #: Number of aborted attempts before the successful one.
    aborted_attempts: int = 0
    #: Timing of the successful attempt (None when the round never finished).
    scheduling_delay: Optional[float] = None
    response_collection_time: Optional[float] = None
    duration: Optional[float] = None
    completed: bool = False
    #: Sorted device ids that reported back before the successful attempt
    #: closed — the round's *reporting set*.  Stragglers that were assigned
    #: but had not responded when the round completed are absent, which is
    #: exactly what makes the set the right input for co-simulated federated
    #: training (:mod:`repro.cosim`), which reads it from
    #: :attr:`~repro.sim.metrics.JobMetrics.round_participants` after the
    #: run.
    participants: Tuple[int, ...] = ()
    #: Absolute simulation time at which the round completed.
    completion_time: Optional[float] = None


@dataclass(slots=True)
class JobRuntime:
    """Mutable simulation state of one CL job."""

    spec: JobSpec
    state: JobState = JobState.QUEUED
    current_round: int = 0
    #: The request currently open for the job, if any.
    open_request: Optional[ResourceRequest] = None
    #: Attempt counter for the current round (resets every round).
    attempt: int = 0
    #: Completed / attempted round records.
    rounds: List[RoundRecord] = field(default_factory=list)
    completion_time: Optional[float] = None

    @property
    def job_id(self) -> int:
        return self.spec.job_id

    @property
    def is_finished(self) -> bool:
        return self.state is JobState.FINISHED

    @property
    def rounds_completed(self) -> int:
        return sum(1 for r in self.rounds if r.completed)

    @property
    def jct(self) -> Optional[float]:
        """Job completion time (completion - arrival), if finished."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.spec.arrival_time

    # ------------------------------------------------------------------ #
    # Round / request lifecycle
    # ------------------------------------------------------------------ #
    def _round_record(self) -> RoundRecord:
        while len(self.rounds) <= self.current_round:
            self.rounds.append(RoundRecord(round_index=len(self.rounds)))
        return self.rounds[self.current_round]

    def open_round_request(self, request_id: int, now: float) -> ResourceRequest:
        """Open a request for the current round (a new attempt)."""
        if self.is_finished:
            raise RuntimeError(f"job {self.job_id} already finished")
        if self.open_request is not None and self.open_request.is_open:
            raise RuntimeError(f"job {self.job_id} already has an open request")
        self.state = JobState.RUNNING
        request = ResourceRequest(
            request_id=request_id,
            job_id=self.job_id,
            demand=self.spec.demand_per_round,
            submit_time=now,
            deadline=now + self.spec.round_deadline,
            min_reports=self.spec.min_reports,
            round_index=self.current_round,
        )
        self.open_request = request
        self._round_record()  # ensure the record exists
        return request

    def complete_round(self, now: float) -> bool:
        """Mark the current round successful.  Returns True when the job is done."""
        request = self.open_request
        if request is None:
            raise RuntimeError("no open request to complete")
        request.state = RequestState.COMPLETED
        request.close_time = now
        record = self._round_record()
        record.completed = True
        record.aborted_attempts = self.attempt
        record.scheduling_delay = request.scheduling_delay
        record.response_collection_time = request.response_collection_time
        record.duration = request.duration
        record.participants = tuple(sorted(request.responses))
        record.completion_time = now
        self.open_request = None
        self.attempt = 0
        self.current_round += 1
        if self.current_round >= self.spec.num_rounds:
            self.state = JobState.FINISHED
            self.completion_time = now
            return True
        return False

    def abort_round(self, now: float) -> None:
        """The current attempt missed its deadline; it will be retried."""
        request = self.open_request
        if request is None:
            raise RuntimeError("no open request to abort")
        request.state = RequestState.ABORTED
        request.close_time = now
        self.open_request = None
        self.attempt += 1

    def cancel(self, now: float) -> None:
        """Cancel the job (e.g. at the simulation horizon)."""
        if self.open_request is not None and self.open_request.is_open:
            self.open_request.state = RequestState.CANCELLED
            self.open_request.close_time = now
            self.open_request = None
        if not self.is_finished:
            self.state = JobState.CANCELLED


__all__ = ["JobRuntime", "RoundRecord"]
