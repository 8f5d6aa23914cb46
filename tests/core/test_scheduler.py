"""Unit tests for the end-to-end Venn scheduling policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.requirements import GENERAL, HIGH_PERFORMANCE
from repro.core.scheduler import VennScheduler
from repro.core.types import RequestState, ResourceRequest
from repro.core.matching import device_capacity_metric
from tests.conftest import bind_devices, make_device, make_job


def open_request(policy, job, now=0.0, request_id=None):
    policy.on_job_arrival(job, now)
    request = ResourceRequest(
        request_id=request_id if request_id is not None else job.job_id,
        job_id=job.job_id,
        demand=job.demand_per_round,
        submit_time=now,
        deadline=now + job.round_deadline,
        min_reports=job.min_reports,
    )
    policy.on_request_open(request, now)
    return request


def complete(request, now):
    """Leave ``request`` as a successful round does: fully acquired,
    ``COMPLETED`` and closed at ``now``."""
    for i in range(request.remaining_demand):
        request.record_assignment(10_000 + i, now)
    request.state = RequestState.COMPLETED
    request.close_time = now


def feed_checkins(policy, device_ids, start=0.0, step=1.0):
    t = start
    for device_id in device_ids:
        policy.on_device_checkin(device_id, t)
        t += step
    return t


class TestVennSchedulerConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VennScheduler(num_tiers=0)

    def test_ablation_names(self):
        assert VennScheduler().name == "venn"
        assert VennScheduler(enable_scheduling=False).name == "venn_wo_sched"
        assert VennScheduler(enable_matching=False).name == "venn_wo_match"


class TestVennSchedulerAssignment:
    def test_assign_none_without_requests(self):
        sched = VennScheduler(seed=0)
        (device_id,) = bind_devices(sched, [make_device()])
        assert sched.assign(device_id, 0.0) is None

    def test_scarce_device_goes_to_scarce_job(self):
        """A high-performance device must serve the high-performance job even
        when a general job with smaller demand is also waiting."""
        sched = VennScheduler(seed=0)
        open_request(sched, make_job(1, GENERAL, demand=5), request_id=1)
        open_request(sched, make_job(2, HIGH_PERFORMANCE, demand=50), request_id=2)
        # Observed supply: plenty of weak devices, few strong ones.
        weak = [make_device(device_id=i, cpu=0.1, mem=0.1) for i in range(20)]
        strong = [make_device(device_id=100 + i, cpu=0.9, mem=0.9) for i in range(2)]
        new = make_device(device_id=999, cpu=0.9, mem=0.9)
        *seen, new = bind_devices(sched, weak + strong + [new])
        feed_checkins(sched, seen)
        chosen = sched.assign(new, now=30.0)
        assert chosen.job_id == 2

    def test_weak_device_goes_to_general_job(self):
        sched = VennScheduler(seed=0)
        open_request(sched, make_job(1, GENERAL, demand=5), request_id=1)
        open_request(sched, make_job(2, HIGH_PERFORMANCE, demand=5), request_id=2)
        *seen, new = bind_devices(
            sched,
            [make_device(device_id=i, cpu=0.2, mem=0.2) for i in (*range(5), 999)],
        )
        feed_checkins(sched, seen)
        chosen = sched.assign(new, now=10.0)
        assert chosen.job_id == 1

    def test_intra_group_order_prefers_smaller_demand(self):
        sched = VennScheduler(seed=0)
        open_request(sched, make_job(1, GENERAL, demand=40, rounds=1), request_id=1)
        open_request(sched, make_job(2, GENERAL, demand=3, rounds=1), request_id=2)
        *seen, new = bind_devices(
            sched, [make_device(device_id=i) for i in (*range(5), 999)]
        )
        feed_checkins(sched, seen)
        chosen = sched.assign(new, now=10.0)
        assert chosen.job_id == 2

    def test_intra_group_order_uses_total_remaining_demand(self):
        """§4.2.1 orders by demand over every remaining round, not by the
        open request's: job 1's small round does not outrank job 2."""
        sched = VennScheduler(seed=0)
        open_request(sched, make_job(1, GENERAL, demand=3, rounds=50), request_id=1)
        open_request(sched, make_job(2, GENERAL, demand=10, rounds=1), request_id=2)
        *seen, new = bind_devices(
            sched, [make_device(device_id=i) for i in (*range(5), 999)]
        )
        feed_checkins(sched, seen)
        chosen = sched.assign(new, now=10.0)
        assert chosen.job_id == 2

    def test_work_conserving_fallback_across_groups(self):
        """When the owning group needs nothing, devices flow to other groups."""
        sched = VennScheduler(seed=0)
        open_request(sched, make_job(1, GENERAL, demand=5), request_id=1)
        job2 = make_job(2, HIGH_PERFORMANCE, demand=1)
        request2 = open_request(sched, job2, request_id=2)
        request2.record_assignment(42, 1.0)  # high-perf demand satisfied
        *seen, new = bind_devices(
            sched,
            [make_device(device_id=i, cpu=0.9, mem=0.9) for i in (*range(3), 999)],
        )
        feed_checkins(sched, seen)
        chosen = sched.assign(new, now=10.0)
        assert chosen.job_id == 1

    def test_assignment_respects_eligibility(self):
        sched = VennScheduler(seed=0)
        open_request(sched, make_job(1, HIGH_PERFORMANCE, demand=5), request_id=1)
        (weak,) = bind_devices(sched, [make_device(device_id=1, cpu=0.1, mem=0.1)])
        sched.on_device_checkin(weak, 0.0)
        assert sched.assign(weak, 1.0) is None

    def test_plan_refreshed_on_request_events(self):
        """Request events invalidate the plan; with incremental maintenance
        (the default) a same-requirement trigger is served by an in-place
        update instead of a from-scratch rebuild."""
        sched = VennScheduler(seed=0)

        def refreshes():
            profile = sched.plan_profile
            return profile.full_rebuilds + profile.incremental_updates

        bind_devices(sched, [make_device(device_id=i) for i in (1, 2, 3)])
        open_request(sched, make_job(1, GENERAL, demand=5), request_id=1)
        sched.assign(1, 1.0)
        seen = refreshes()
        request2 = open_request(sched, make_job(2, GENERAL, demand=5), request_id=2)
        sched.assign(2, 2.0)
        assert refreshes() > seen
        # Job 2 shares job 1's requirement, so its arrival + request were
        # classified incrementally — no extra full rebuild.
        assert sched.plan_profile.incremental_updates > 0
        complete(request2, 3.0)
        sched.on_request_closed(request2, 3.0)
        sched.assign(3, 4.0)
        assert refreshes() > seen + 1

    def test_plan_rebuilt_on_request_events_in_full_mode(self):
        """The oracle mode preserves the paper-literal behaviour: every
        trigger is served by a full rebuild."""
        sched = VennScheduler(seed=0, plan_maintenance="full")
        bind_devices(sched, [make_device(device_id=i) for i in (1, 2, 3)])
        open_request(sched, make_job(1, GENERAL, demand=5), request_id=1)
        sched.assign(1, 1.0)
        rebuilds = sched.plan_profile.full_rebuilds
        request2 = open_request(sched, make_job(2, GENERAL, demand=5), request_id=2)
        sched.assign(2, 2.0)
        assert sched.plan_profile.full_rebuilds > rebuilds
        complete(request2, 3.0)
        sched.on_request_closed(request2, 3.0)
        sched.assign(3, 4.0)
        assert sched.plan_profile.full_rebuilds > rebuilds + 1
        assert sched.plan_profile.incremental_updates == 0


class TestVennSchedulerMatchingIntegration:
    def _profiled_scheduler(self, ci_response=500.0, num_tiers=2):
        """Scheduler with one job whose profile says response time dominates."""
        sched = VennScheduler(seed=1, num_tiers=num_tiers)
        job = make_job(1, GENERAL, demand=3, rounds=5)
        request = open_request(sched, job, request_id=1)
        matcher = sched._matchers[1]
        for i, speed in enumerate(np.linspace(0.5, 5.0, 100)):
            matcher.record_participation(
                device_capacity_metric(make_device(device_id=i, speed=float(speed))),
                response_time=10 * speed,
            )
        matcher.record_round(1.0, ci_response)
        bind_devices(
            sched,
            [
                make_device(device_id=i, speed=1000.0 if i == 601 else 1.0)
                for i in (500, 501, 600, 601)
            ],
        )
        return sched, request

    def test_tier_decision_cached_per_request(self):
        sched, request = self._profiled_scheduler()
        sched.assign(500, now=1.0)
        assert request.request_id in sched._tier_decisions
        first = sched._tier_decisions[request.request_id]
        sched.assign(501, now=2.0)
        assert sched._tier_decisions[request.request_id] is first

    def test_matching_disabled_never_restricts(self):
        sched = VennScheduler(seed=1, enable_matching=False)
        job = make_job(1, GENERAL, demand=3)
        request = open_request(sched, job, request_id=1)
        (device_id,) = bind_devices(sched, [make_device(device_id=5)])
        sched.assign(device_id, now=1.0)
        assert not sched._tier_decisions[request.request_id].use_tier
        assert not sched._matchers  # and no response is profiled

    def test_a_single_tier_builds_no_matcher(self):
        sched = VennScheduler(seed=1, num_tiers=1)
        request = open_request(sched, make_job(1, GENERAL, demand=3))
        (device_id,) = bind_devices(sched, [make_device(device_id=5)])
        sched.assign(device_id, now=1.0)
        assert not sched._matchers
        assert not sched._tier_decisions[request.request_id].use_tier

    def test_tier_restricted_device_still_assigned_as_fallback(self):
        """A device outside the chosen tier is used as a fallback rather than
        wasted when no other job can take it."""
        sched, request = self._profiled_scheduler()
        # Find a decision that actually uses a tier by retrying seeds.
        decision = None
        for _ in range(20):
            sched._tier_decisions.clear()
            sched.assign(600, now=1.0)
            decision = sched._tier_decisions[request.request_id]
            if decision.use_tier:
                break
        if not decision.use_tier:
            pytest.skip("rng never chose a beneficial tier")
        # A device far outside any finite tier bound still gets assigned.
        if decision.accepts(device_capacity_metric(make_device(speed=1000.0))):
            pytest.skip("chosen tier already accepts the slow device")
        chosen = sched.assign(601, now=2.0)
        assert chosen is request

    def test_on_response_updates_profile(self):
        sched = VennScheduler(seed=0)
        job = make_job(1, GENERAL, demand=2)
        request = open_request(sched, job, request_id=1)
        (device,) = bind_devices(sched, [make_device(device_id=7)])
        sched.on_device_checkin(device, 0.0)
        chosen = sched.assign(device, 1.0)
        chosen.record_assignment(device, 1.0)
        sched.on_response(request, device, 61.0)
        matcher = sched._matchers[1]
        assert list(matcher._response_times) == [pytest.approx(60.0)]
        assert matcher.fit is None  # participants alone fit nothing

    def test_only_a_completed_close_fits_the_tiers(self):
        """Closing an aborted request leaves the fit alone; closing a
        completed one fits the tiers from every participant recorded so far
        and the round's timing."""
        sched = VennScheduler(seed=0)
        job = make_job(1, GENERAL, demand=4)
        aborted = open_request(sched, job, request_id=1)
        bind_devices(sched, [make_device(device_id=i) for i in range(8)])
        for i in range(4):
            aborted.record_assignment(i, 5.0)
            sched.on_response(aborted, i, 20.0)
        aborted.state = RequestState.ABORTED
        aborted.close_time = 30.0
        sched.on_request_closed(aborted, 30.0)
        matcher = sched._matchers[1]
        assert matcher.fit is None
        completed = ResourceRequest(
            request_id=2, job_id=1, demand=4, submit_time=30.0,
            deadline=1230.0, min_reports=job.min_reports,
        )
        sched.on_request_open(completed, 30.0)
        for i in range(4, 8):
            completed.record_assignment(i, 40.0)
            sched.on_response(completed, i, 60.0)
        completed.state = RequestState.COMPLETED
        completed.close_time = 60.0
        sched.on_request_closed(completed, 60.0)
        assert len(matcher._capacities) == 8
        assert matcher.fit is not None
        assert matcher.fit.ci == pytest.approx(20.0 / 10.0)


class TestVennSchedulerLifecycle:
    def test_job_finish_cleans_up(self):
        sched = VennScheduler(seed=0)
        open_request(sched, make_job(1, GENERAL, demand=5), request_id=1)
        sched.on_job_finished(1, 10.0)
        assert 1 not in sched.jobs
        assert 1 not in sched._matchers
        assert 1 not in sched.fairness._records  # forgotten
        (device_id,) = bind_devices(sched, [make_device()])
        assert sched.assign(device_id, 11.0) is None

    def test_supply_checkins_feed_estimator(self):
        sched = VennScheduler(seed=0)
        sched.on_job_arrival(make_job(1, GENERAL, demand=5), 0.0)
        feed_checkins(
            sched, bind_devices(sched, [make_device(device_id=i) for i in range(10)])
        )
        assert sched.supply._total_checkins == 10

    def test_rebuild_plan_with_no_jobs(self):
        sched = VennScheduler(seed=0)
        plan = sched.rebuild_plan(now=0.0)
        assert plan.group_order == []


class TestPlanVersion:
    def test_every_refresh_bumps_the_version(self):
        """``plan_version`` and ``plan`` are the decision surface tools
        read: a trigger dirties the plan without moving the version, and
        the refresh that follows moves it by one."""
        sched = VennScheduler(seed=0)
        open_request(sched, make_job(1, GENERAL, demand=5), request_id=1)
        assert sched._plan_dirty
        sched.rebuild_plan(now=1.0)
        version = sched.plan_version
        assert version >= 1 and not sched._plan_dirty
        assert list(sched.plan.group_order) == ["general"]
        assert dict(sched.plan.job_order) == {"general": [1]}
        # A new request dirties the plan between two reads at one version.
        open_request(sched, make_job(2, HIGH_PERFORMANCE, demand=3), request_id=2)
        assert sched.plan_version == version and sched._plan_dirty
        sched.rebuild_plan(now=2.0)
        assert sched.plan_version == version + 1
        assert set(sched.plan.job_order) == {"general", "high_performance"}
