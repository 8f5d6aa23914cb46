"""Unit tests for the baseline scheduling policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import (
    POLICY_NAMES,
    ClientDrivenRandomPolicy,
    FIFOPolicy,
    JobDrivenRandomPolicy,
    RandomMatchingPolicy,
    SRSFPolicy,
    UniformRandomPolicy,
    make_policy,
)
from repro.core.requirements import GENERAL, HIGH_PERFORMANCE
from repro.core.scheduler import VennScheduler
from repro.core.types import ResourceRequest
from tests.conftest import bind_devices, make_device, make_job


def open_request(policy, job, now=0.0, request_id=None):
    """Register a job and open one round request for it."""
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


class TestMakePolicy:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_factory_constructs_every_policy(self, name):
        policy = make_policy(name, seed=1)
        assert policy.name  # every policy advertises a name

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("does-not-exist")

    def test_factory_venn_ablations(self):
        wo_sched = make_policy("venn_wo_sched", seed=1)
        wo_match = make_policy("venn_wo_match", seed=1)
        assert isinstance(wo_sched, VennScheduler) and not wo_sched.enable_scheduling
        assert isinstance(wo_match, VennScheduler) and not wo_match.enable_matching


class TestBasePolicyBookkeeping:
    def test_duplicate_job_rejected(self):
        policy = FIFOPolicy()
        job = make_job(1)
        policy.on_job_arrival(job, 0.0)
        with pytest.raises(ValueError):
            policy.on_job_arrival(job, 1.0)

    def test_request_for_unknown_job_rejected(self):
        policy = FIFOPolicy()
        request = ResourceRequest(
            request_id=1,
            job_id=99,
            demand=5,
            submit_time=0.0,
            deadline=10.0,
            min_reports=4,
        )
        with pytest.raises(KeyError):
            policy.on_request_open(request, 0.0)

    def test_request_close_updates_round_count(self):
        policy = SRSFPolicy()
        job = make_job(1, demand=5, rounds=3)
        request = open_request(policy, job)
        before = policy.remaining_job_demand(1)
        request.state = request.state.__class__.COMPLETED
        policy.on_request_closed(request, 10.0)
        assert policy.rounds_completed[1] == 1
        assert policy.remaining_job_demand(1) < before

    def test_job_finished_clears_state(self):
        policy = FIFOPolicy()
        job = make_job(1)
        open_request(policy, job)
        policy.on_job_finished(1, 5.0)
        assert 1 not in policy.jobs
        assert 1 not in policy.open_requests

    def test_eligible_open_requests_filters_by_requirement(self):
        policy = FIFOPolicy()
        open_request(policy, make_job(1, requirement=GENERAL, demand=5), request_id=1)
        open_request(
            policy, make_job(2, requirement=HIGH_PERFORMANCE, demand=5), request_id=2
        )
        weak, strong = bind_devices(
            policy,
            [make_device(0, cpu=0.1, mem=0.1), make_device(1, cpu=0.9, mem=0.9)],
        )
        assert {r.job_id for r in policy.eligible_open_requests(weak)} == {1}
        assert {r.job_id for r in policy.eligible_open_requests(strong)} == {1, 2}

    def test_satisfied_requests_are_not_offered(self):
        policy = FIFOPolicy()
        request = open_request(policy, make_job(1, demand=1))
        request.record_assignment(55, 1.0)
        (device_id,) = bind_devices(policy, [make_device()])
        assert policy.eligible_open_requests(device_id) == []


class TestOrderingPolicies:
    def test_fifo_prefers_earliest_arrival(self):
        policy = FIFOPolicy()
        open_request(policy, make_job(1, arrival=100.0), now=100.0, request_id=1)
        open_request(policy, make_job(2, arrival=5.0), now=5.0, request_id=2)
        (device_id,) = bind_devices(policy, [make_device()])
        chosen = policy.assign(device_id, now=200.0)
        assert chosen.job_id == 2

    def test_srsf_prefers_smallest_remaining_service(self):
        policy = SRSFPolicy()
        open_request(policy, make_job(1, demand=50, rounds=5), request_id=1)
        open_request(policy, make_job(2, demand=5, rounds=1), request_id=2)
        (device_id,) = bind_devices(policy, [make_device()])
        chosen = policy.assign(device_id, now=10.0)
        assert chosen.job_id == 2

    def test_assign_returns_none_when_nothing_eligible(self):
        policy = SRSFPolicy()
        open_request(policy, make_job(1, requirement=HIGH_PERFORMANCE))
        (weak_device,) = bind_devices(policy, [make_device(cpu=0.1, mem=0.1)])
        assert policy.assign(weak_device, now=1.0) is None

    def test_random_policy_is_seed_deterministic(self):
        def run(seed):
            policy = RandomMatchingPolicy(seed=seed)
            for jid in range(5):
                open_request(policy, make_job(jid, demand=10), request_id=jid)
            ids = bind_devices(policy, [make_device(device_id=i) for i in range(20)])
            return [policy.assign(i, 1.0).job_id for i in ids]

        assert run(3) == run(3)

    def test_random_policy_concentrates_within_a_round(self):
        """With a fixed per-round priority the same request keeps winning
        until it is satisfied."""
        policy = RandomMatchingPolicy(seed=0)
        for jid in range(3):
            open_request(policy, make_job(jid, demand=4), request_id=jid)
        bind_devices(policy, [make_device(device_id=i) for i in range(2)])
        first = policy.assign(0, 1.0)
        second = policy.assign(1, 1.1)
        assert first.job_id == second.job_id


class TestRandomScatterPolicies:
    def test_uniform_random_spreads_across_jobs(self):
        policy = UniformRandomPolicy(seed=7)
        for jid in range(4):
            open_request(policy, make_job(jid, demand=1000), request_id=jid)
        ids = bind_devices(policy, [make_device(device_id=i) for i in range(100)])
        chosen = {policy.assign(i, 1.0).job_id for i in ids}
        assert len(chosen) > 1

    def test_client_driven_same_behaviour_as_uniform(self):
        assert issubclass(ClientDrivenRandomPolicy, UniformRandomPolicy)

    def test_job_driven_weights_by_demand(self):
        policy = JobDrivenRandomPolicy(seed=7)
        open_request(policy, make_job(1, demand=500), request_id=1)
        open_request(policy, make_job(2, demand=5), request_id=2)
        ids = bind_devices(policy, [make_device(device_id=i) for i in range(200)])
        picks = [policy.assign(i, 1.0).job_id for i in ids]
        counts = {jid: picks.count(jid) for jid in (1, 2)}
        assert counts[1] > counts[2]

    def test_scatter_policies_return_none_without_requests(self):
        for cls in (UniformRandomPolicy, JobDrivenRandomPolicy):
            policy = cls(seed=1)
            (device_id,) = bind_devices(policy, [make_device()])
            assert policy.assign(device_id, 0.0) is None
