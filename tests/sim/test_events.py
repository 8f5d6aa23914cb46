"""Tests for the event queue."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue, EventType


class TestEventQueue:
    def test_pop_empty_returns_none(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_key() is None

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1.0, EventType.JOB_ARRIVAL)

    def test_events_pop_in_time_order(self):
        q = EventQueue()
        q.push(5.0, EventType.DEVICE_CHECKIN, device_id=1)
        q.push(1.0, EventType.JOB_ARRIVAL, job_id=2)
        q.push(3.0, EventType.DEVICE_RESPONSE, device_id=3)
        times = [q.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        first = q.push(2.0, EventType.JOB_ARRIVAL, job_id=1)
        second = q.push(2.0, EventType.JOB_ARRIVAL, job_id=2)
        assert q.pop() is first
        assert q.pop() is second

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        cancelled = q.push(1.0, EventType.REQUEST_DEADLINE, request_id=1)
        kept = q.push(2.0, EventType.REQUEST_DEADLINE, request_id=2)
        cancelled.cancel()
        assert q.pop() is kept
        assert q.pop() is None

    def test_payload_preserved(self):
        q = EventQueue()
        q.push(1.0, EventType.DEVICE_RESPONSE, device_id=9, success=True)
        event = q.pop()
        assert (event.device_id, event.success) == (9, True)
        # Fields the push did not set keep their sentinel defaults.
        assert (event.request_id, event.job_id, event.session_end) == (-1, -1, 0.0)

    def test_pickled_queue_holds_no_itertools_object(self):
        """The sequence counter pickles as a plain int: Python 3.12
        deprecates pickling ``itertools.count`` and 3.14 removes it."""
        q = EventQueue()
        q.push(1.0, EventType.JOB_ARRIVAL)
        q.reserve(5)
        assert b"itertools" not in pickle.dumps(q)

    @given(times=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_pop_order_is_always_sorted(self, times):
        """Property: popping yields a non-decreasing time sequence."""
        q = EventQueue()
        for t in times:
            q.push(t, EventType.JOB_ARRIVAL)
        popped = [q.pop().time for _ in times]
        assert popped == sorted(times)
        assert q.pop() is None
