"""Unit tests for the core data types."""

from __future__ import annotations

import math

import pytest

from repro.core.requirements import GENERAL
from repro.core.types import (
    DeviceProfile,
    JobSpec,
    RequestState,
    ResourceRequest,
)
from tests.conftest import make_device, make_job


class TestDeviceProfile:
    def test_valid_construction(self):
        d = make_device(cpu=0.3, mem=0.7, speed=2.0, domains={"emoji"})
        assert d.cpu_score == 0.3
        assert d.memory_score == 0.7
        assert "emoji" in d.data_domains

    @pytest.mark.parametrize("cpu", [-0.1, 1.1])
    def test_cpu_out_of_range(self, cpu):
        with pytest.raises(ValueError):
            make_device(cpu=cpu)

    @pytest.mark.parametrize("mem", [-0.5, 2.0])
    def test_memory_out_of_range(self, mem):
        with pytest.raises(ValueError):
            make_device(mem=mem)

    def test_speed_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            make_device(speed=0.0)

    def test_reliability_out_of_range(self):
        with pytest.raises(ValueError):
            make_device(reliability=1.5)

    def test_hashable(self):
        d1 = make_device(device_id=1)
        d2 = make_device(device_id=1)
        assert d1 == d2
        assert hash(d1) == hash(d2)


class TestJobSpec:
    def test_total_demand(self):
        job = make_job(demand=20, rounds=5)
        assert job.total_demand == 100

    def test_min_reports_default_fraction(self):
        job = make_job(demand=10)
        assert job.min_reports == 8

    def test_min_reports_rounds_up(self):
        job = JobSpec(
            job_id=1,
            requirement=GENERAL,
            demand_per_round=7,
            num_rounds=1,
            min_report_fraction=0.8,
        )
        assert job.min_reports == math.ceil(0.8 * 7)

    def test_min_reports_at_least_one(self):
        job = JobSpec(
            job_id=1,
            requirement=GENERAL,
            demand_per_round=1,
            num_rounds=1,
            min_report_fraction=0.1,
        )
        assert job.min_reports == 1

    def test_default_name(self):
        job = make_job(job_id=42)
        assert job.name == "job-42"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"demand": 0},
            {"rounds": 0},
            {"deadline": 0.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            make_job(**kwargs)

    @pytest.mark.parametrize(
        "field, message",
        [
            ("arrival_time", "arrival_time must be finite"),
            ("round_deadline", "round_deadline must be finite and positive"),
            ("base_task_duration", "base_task_duration must be finite and positive"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, field, message, value):
        """A NaN arrival would never run, a NaN deadline stalls its job and
        a NaN task duration makes the two engines diverge: refuse them."""
        with pytest.raises(ValueError, match=f"{message}, got {value}"):
            JobSpec(
                job_id=1,
                requirement=GENERAL,
                demand_per_round=5,
                num_rounds=1,
                **{field: value},
            )

    def test_invalid_report_fraction(self):
        with pytest.raises(ValueError):
            JobSpec(
                job_id=1,
                requirement=GENERAL,
                demand_per_round=5,
                num_rounds=1,
                min_report_fraction=0.0,
            )


class TestResourceRequest:
    def _request(self, demand=3, submit=10.0):
        return ResourceRequest(
            request_id=1,
            job_id=7,
            demand=demand,
            submit_time=submit,
            deadline=submit + 600,
            min_reports=max(1, int(0.8 * demand)),
        )

    def test_initial_state(self):
        req = self._request()
        assert req.state is RequestState.PENDING
        assert req.remaining_demand == 3
        assert req.is_open

    def test_assignment_progression(self):
        req = self._request(demand=2)
        req.record_assignment(100, 11.0)
        assert req.remaining_demand == 1
        assert req.state is RequestState.PENDING
        req.record_assignment(101, 15.0)
        assert req.remaining_demand == 0
        assert req.state is RequestState.COLLECTING
        assert req.acquired_time == 15.0
        assert req.scheduling_delay == 5.0

    def test_over_assignment_rejected(self):
        req = self._request(demand=1)
        req.record_assignment(1, 11.0)
        with pytest.raises(ValueError):
            req.record_assignment(2, 12.0)

    def test_assignment_to_closed_request_rejected(self):
        req = self._request(demand=2)
        req.state = RequestState.ABORTED
        with pytest.raises(ValueError):
            req.record_assignment(1, 11.0)

    def test_response_requires_assignment(self):
        req = self._request(demand=2)
        with pytest.raises(ValueError):
            req.record_response(55)

    def test_response_collection_time(self):
        req = self._request(demand=2)
        req.record_assignment(1, 12.0)
        req.record_assignment(2, 14.0)
        req.record_response(1)
        req.record_response(2)
        req.state = RequestState.COMPLETED
        req.close_time = 30.0
        assert req.response_collection_time == pytest.approx(16.0)
        assert req.duration == pytest.approx(20.0)

    def test_collection_time_none_when_aborted(self):
        req = self._request(demand=1)
        req.record_assignment(1, 12.0)
        req.state = RequestState.ABORTED
        req.close_time = 600.0
        assert req.response_collection_time is None
        assert req.duration == pytest.approx(590.0)

    def test_scheduling_delay_none_until_acquired(self):
        req = self._request(demand=2)
        req.record_assignment(1, 12.0)
        assert req.scheduling_delay is None
