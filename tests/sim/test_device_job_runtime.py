"""Tests for per-device and per-job runtime state."""

from __future__ import annotations

import pytest

from repro.core.types import JobState, RequestState
from repro.sim.device import SECONDS_PER_DAY, DeviceRuntime, DeviceStatus
from repro.sim.job import JobRuntime
from tests.conftest import make_device, make_job


class TestDeviceRuntime:
    def _runtime(self):
        return DeviceRuntime(profile=make_device(device_id=3))

    def test_initially_offline(self):
        dev = self._runtime()
        assert dev.status is DeviceStatus.OFFLINE
        assert not dev.is_online
        assert not dev.can_take_task(0.0)

    def test_check_in_and_out(self):
        dev = self._runtime()
        dev.check_in(10.0, 100.0)
        assert dev.is_idle and dev.is_online
        assert dev.can_take_task(20.0)
        dev.check_out()
        assert dev.status is DeviceStatus.OFFLINE

    def test_check_in_requires_future_session_end(self):
        dev = self._runtime()
        with pytest.raises(ValueError):
            dev.check_in(10.0, 10.0)

    def test_cannot_check_in_while_busy(self):
        dev = self._runtime()
        dev.check_in(0.0, 100.0)
        dev.start_task(now=5.0)
        with pytest.raises(RuntimeError):
            dev.check_in(6.0, 200.0)

    def test_task_lifecycle(self):
        dev = self._runtime()
        dev.check_in(0.0, 100.0)
        dev.start_task(now=5.0)
        assert dev.status is DeviceStatus.BUSY
        assert not dev.can_take_task(6.0)
        dev.finish_task(now=50.0)
        assert dev.is_idle  # session still open

    def test_finish_after_session_end_goes_offline(self):
        dev = self._runtime()
        dev.check_in(0.0, 40.0)
        dev.start_task(now=5.0)
        dev.finish_task(now=60.0)
        assert dev.status is DeviceStatus.OFFLINE

    def test_start_task_requires_idle(self):
        dev = self._runtime()
        with pytest.raises(RuntimeError):
            dev.start_task(now=0.0)

    def test_finish_requires_busy(self):
        dev = self._runtime()
        dev.check_in(0.0, 10.0)
        with pytest.raises(RuntimeError):
            dev.finish_task(5.0)

    def test_daily_limit(self):
        dev = self._runtime()
        dev.check_in(0.0, SECONDS_PER_DAY * 2)
        dev.start_task(now=100.0)
        dev.finish_task(now=200.0)
        assert dev.participated_today(300.0)
        assert not dev.can_take_task(300.0, enforce_daily_limit=True)
        assert dev.can_take_task(300.0, enforce_daily_limit=False)
        # The next day the limit resets.
        assert dev.can_take_task(SECONDS_PER_DAY + 10.0, enforce_daily_limit=True)

    def test_checkout_while_busy_is_deferred(self):
        dev = self._runtime()
        dev.check_in(0.0, 50.0)
        dev.start_task(10.0)
        dev.check_out()  # no-op while busy
        assert dev.status is DeviceStatus.BUSY


class TestJobRuntime:
    def _job(self, rounds=2, demand=2):
        return JobRuntime(spec=make_job(job_id=1, rounds=rounds, demand=demand))

    def test_initial_state(self):
        job = self._job()
        assert job.state is JobState.QUEUED
        assert job.jct is None
        assert job.rounds_completed == 0

    def test_round_progression_to_completion(self):
        job = self._job(rounds=2, demand=1)
        r1 = job.open_round_request(1, now=10.0)
        assert job.state is JobState.RUNNING
        r1.record_assignment(7, 12.0)
        r1.record_response(7)
        finished = job.complete_round(now=20.0)
        assert not finished
        assert job.current_round == 1
        r2 = job.open_round_request(2, now=21.0)
        r2.record_assignment(8, 25.0)
        r2.record_response(8)
        finished = job.complete_round(now=30.0)
        assert finished
        assert job.is_finished
        assert job.jct == pytest.approx(30.0 - job.spec.arrival_time)
        assert job.rounds_completed == 2

    def test_cannot_open_two_requests(self):
        job = self._job()
        job.open_round_request(1, now=0.0)
        with pytest.raises(RuntimeError):
            job.open_round_request(2, now=1.0)

    def test_cannot_open_after_finish(self):
        job = self._job(rounds=1, demand=1)
        r = job.open_round_request(1, 0.0)
        r.record_assignment(1, 1.0)
        r.record_response(1)
        job.complete_round(2.0)
        with pytest.raises(RuntimeError):
            job.open_round_request(2, 3.0)

    def test_complete_without_request_fails(self):
        job = self._job()
        with pytest.raises(RuntimeError):
            job.complete_round(1.0)

    def test_abort_and_retry_same_round(self):
        job = self._job(rounds=1, demand=2)
        r1 = job.open_round_request(1, now=0.0)
        job.abort_round(now=600.0)
        assert r1.state is RequestState.ABORTED
        assert job.attempt == 1
        assert job.current_round == 0
        r2 = job.open_round_request(2, now=600.0)
        r2.record_assignment(1, 610.0)
        r2.record_assignment(2, 620.0)
        r2.record_response(1)
        r2.record_response(2)
        job.complete_round(720.0)
        assert job.is_finished
        assert job.rounds[0].aborted_attempts == 1

    def test_round_records_capture_timings(self):
        job = self._job(rounds=1, demand=1)
        r = job.open_round_request(1, now=100.0)
        r.record_assignment(5, 160.0)
        r.record_response(5)
        job.complete_round(200.0)
        record = job.rounds[0]
        assert record.completed
        assert record.scheduling_delay == pytest.approx(60.0)
        assert record.response_collection_time == pytest.approx(40.0)
        assert record.duration == pytest.approx(100.0)

    def test_cancel_open_request(self):
        job = self._job()
        r = job.open_round_request(1, now=0.0)
        job.cancel(now=50.0)
        assert r.state is RequestState.CANCELLED
        assert job.state is JobState.CANCELLED
        assert job.jct is None

    def test_cancel_after_finish_keeps_finished_state(self):
        job = self._job(rounds=1, demand=1)
        r = job.open_round_request(1, 0.0)
        r.record_assignment(1, 1.0)
        r.record_response(1)
        job.complete_round(2.0)
        job.cancel(5.0)
        assert job.state is JobState.FINISHED
