"""Unit tests for resource-homogeneous job groups."""

from __future__ import annotations

import pytest

from repro.core.job_group import JobGroupRegistry
from repro.core.requirements import COMPUTE_RICH, GENERAL, HIGH_PERFORMANCE
from tests.conftest import make_job


class TestJobGroupRegistry:
    def test_upsert_creates_groups_by_requirement(self):
        reg = JobGroupRegistry()
        reg.upsert_job(1, GENERAL, remaining_demand=10)
        reg.upsert_job(2, GENERAL, remaining_demand=5)
        reg.upsert_job(3, COMPUTE_RICH, remaining_demand=8)
        assert len(reg) == 2
        assert reg.group("general").queue_length == 2
        assert reg.group("compute_rich").queue_length == 1

    def test_upsert_refreshes_existing_entry(self):
        reg = JobGroupRegistry()
        reg.upsert_job(1, GENERAL, remaining_demand=10)
        reg.upsert_job(1, GENERAL, remaining_demand=4)
        assert reg.group("general").entries[1].remaining_demand == 4
        assert reg.group("general").queue_length == 1

    def test_negative_demand_rejected(self):
        reg = JobGroupRegistry()
        with pytest.raises(ValueError):
            reg.upsert_job(1, GENERAL, remaining_demand=-1)

    def test_conflicting_requirement_definition_rejected(self):
        from repro.core.requirements import EligibilityRequirement

        reg = JobGroupRegistry()
        reg.upsert_job(1, GENERAL, remaining_demand=1)
        clone_with_threshold = EligibilityRequirement("general", min_cpu=0.9)
        with pytest.raises(ValueError):
            reg.upsert_job(2, clone_with_threshold, remaining_demand=1)

    def test_ordered_jobs_ascending_adjusted_demand(self):
        reg = JobGroupRegistry()
        reg.upsert_job(1, GENERAL, remaining_demand=30)
        reg.upsert_job(2, GENERAL, remaining_demand=5)
        reg.upsert_job(3, GENERAL, remaining_demand=12)
        ordered = [e.job_id for e in reg.group("general").ordered_jobs()]
        assert ordered == [2, 3, 1]

    def test_ordered_jobs_respects_adjusted_demand_override(self):
        reg = JobGroupRegistry()
        reg.upsert_job(1, GENERAL, remaining_demand=30, adjusted_demand=1.0)
        reg.upsert_job(2, GENERAL, remaining_demand=5, adjusted_demand=100.0)
        ordered = [e.job_id for e in reg.group("general").ordered_jobs()]
        assert ordered == [1, 2]

    def test_ordered_jobs_tie_broken_by_job_id(self):
        reg = JobGroupRegistry()
        reg.upsert_job(9, GENERAL, remaining_demand=5)
        reg.upsert_job(3, GENERAL, remaining_demand=5)
        ordered = [e.job_id for e in reg.group("general").ordered_jobs()]
        assert ordered == [3, 9]

    def test_jobs_without_open_request_excluded_from_queue(self):
        reg = JobGroupRegistry()
        reg.upsert_job(1, GENERAL, remaining_demand=5, has_open_request=False)
        reg.upsert_job(2, GENERAL, remaining_demand=9)
        group = reg.group("general")
        assert group.queue_length == 1
        assert group.head().job_id == 2

    def test_head_none_when_all_idle(self):
        reg = JobGroupRegistry()
        reg.upsert_job(1, GENERAL, remaining_demand=5, has_open_request=False)
        assert reg.group("general").head() is None

    def test_from_jobs_snapshot(self):
        jobs = {
            1: make_job(1, GENERAL, demand=10),
            2: make_job(2, COMPUTE_RICH, demand=20),
            3: make_job(3, COMPUTE_RICH, demand=5),
        }
        remaining = {1: 10.0, 2: 20.0, 3: 5.0}
        reg = JobGroupRegistry.from_jobs(jobs, remaining, open_jobs=[1, 3])
        assert reg.group("general").queue_length == 1
        compute = reg.group("compute_rich")
        assert compute.queue_length == 1
        assert compute.head().job_id == 3
