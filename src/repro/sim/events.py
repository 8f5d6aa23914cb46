"""Event definitions and the event queue of the CL simulator.

The simulator is a classic discrete-event engine: every state change is an
:class:`Event` with a timestamp, events are processed in time order, and
processing an event may schedule further events.  Ties are broken by an
insertion sequence number so runs are fully deterministic.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any, Optional


class EventType(enum.Enum):
    """All event kinds understood by the engine."""

    #: A CL job arrives and registers with the resource manager.
    JOB_ARRIVAL = "job_arrival"
    #: A device comes online (starts an availability session).
    DEVICE_CHECKIN = "device_checkin"
    #: A device's availability session ends.
    DEVICE_CHECKOUT = "device_checkout"
    #: A device finishes its assigned task and reports back.
    DEVICE_RESPONSE = "device_response"
    #: A round's deadline fires (the round aborts unless already complete).
    REQUEST_DEADLINE = "request_deadline"


@dataclass(slots=True)
class Event:
    """A single scheduled event.

    Events are never compared themselves: the queue keys its heap on
    ``(time, seq)`` tuples and the sequence number lives only there.  The
    event-specific data lives in fixed slotted fields (device id, request
    id, ...); unused fields keep their sentinel defaults.
    """

    time: float
    type: EventType
    device_id: int = -1
    request_id: int = -1
    job_id: int = -1
    #: End of the availability session (check-in / checkout events).
    session_end: float = 0.0
    #: Whether a DEVICE_RESPONSE reports success.
    success: bool = False
    #: Events can be cancelled lazily (e.g. a deadline for a request that
    #: already completed); the engine skips cancelled events when popping.
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Internally the heap holds ``(time, seq, event)`` tuples: ``seq`` is a
    unique insertion counter, so comparisons never reach the event object
    and ties break by insertion order, exactly as before.  The counter is a
    plain int, the next number to hand out: snapshots pickle the queue, and
    Python 3.12 deprecates pickling an ``itertools.count`` (3.14 removes it).
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = 0

    def push(self, time: float, type: EventType, **fields: Any) -> Event:
        """Schedule an event and return it (so callers may cancel it later)."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        seq = self._counter
        self._counter = seq + 1
        event = Event(time=time, type=type, **fields)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def next_seq(self) -> int:
        """Claim the next sequence number without scheduling an event.

        The fleet engine uses this to stamp response events it hands to the
        device stream's heap: the number comes from the *same* counter as
        :meth:`push`, so dynamic events sort identically whether they live
        in this queue or in the stream's.
        """
        seq = self._counter
        self._counter = seq + 1
        return seq

    def reserve(self, count: int) -> None:
        """Skip ``count`` sequence numbers.

        The fleet engine reserves the numbers its static device stream
        carries (two per availability session, assigned at build time) so
        the counter continues exactly where the single-queue engine's would.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._counter += count

    def peek_key(self) -> Optional[tuple]:
        """``(time, seq)`` of the next non-cancelled event, or ``None``."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][:2] if self._heap else None

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        return None


__all__ = ["Event", "EventQueue", "EventType"]
