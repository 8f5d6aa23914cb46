"""Differential tests for the batched decision path.

The scalar ``assign`` walk is the decision oracle; ``assign_batch_bulk``
(the ledger protocol, Venn only) must produce byte-for-byte identical
decision sequences for any cohort, any plan, any demand shape — including
the quota edges where the protocol differs structurally from the scalar
loop: demand zeroing mid-cohort, a request closing between consults,
devices already assigned to the only candidate, and the cohort-local
ledger replaying demand the engine has not committed yet.

Three layers:

* **Scenario differentials** — fresh policy + fresh requests per protocol,
  decisions compared, one quota edge each.
* **Hypothesis differential** — random plans, cohorts and demand shapes
  through the Venn scheduler (the only policy with a batched
  implementation; on the engine every other policy keeps per-device
  consults, pinned by ``tests/sim/test_batched_dispatch.py``).
* **Protocol units** — ``record_assignments_bulk`` validation and the
  bulk walk's early-stop/dead-signature behaviour.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import make_policy
from repro.core.requirements import (
    COMPUTE_RICH,
    GENERAL,
    HIGH_PERFORMANCE,
    MEMORY_RICH,
)
from repro.core.types import RequestState, ResourceRequest
from tests.conftest import bind_devices, make_device, make_job

CATEGORIES = [GENERAL, COMPUTE_RICH, MEMORY_RICH, HIGH_PERFORMANCE]


# --------------------------------------------------------------------- #
# Scenario construction
# --------------------------------------------------------------------- #
def build_policy(name, jobs, now=0.0, checkins=()):
    """Fresh policy + fresh open requests for one differential run.

    Each protocol mutates the requests it is offered (``record_assignment``
    bookkeeping between consults), so every run gets its own instances.
    The check-in devices are the bound population.
    """
    policy = make_policy(name, seed=123)
    device_ids = bind_devices(policy, checkins, CATEGORIES)
    requests = []
    for job in jobs:
        policy.on_job_arrival(job, now)
        request = ResourceRequest(
            request_id=job.job_id,
            job_id=job.job_id,
            demand=job.demand_per_round,
            submit_time=now,
            deadline=now + job.round_deadline,
            min_reports=job.min_reports,
        )
        policy.on_request_open(request, now)
        requests.append(request)
    for device_id in device_ids:
        policy.on_device_checkin(device_id, now)
    return policy, requests


def run_scalar(policy, devices, now):
    """Oracle: consult-commit-consult, exactly like the per-event loop."""
    decisions = []
    for device in devices:
        request = policy.assign(device.device_id, now)
        decisions.append(None if request is None else request.request_id)
        if request is not None:
            request.record_assignment(device.device_id, now)
    return decisions


def run_bulk(policy, devices, now):
    """Ledger protocol driven the way the engine drives it: bulk-commit
    every returned proposal, then resume from the unconsulted remainder."""
    device_ids = [device.device_id for device in devices]
    decisions = [None] * len(devices)
    start = 0
    while start < len(devices):
        consumed, proposals = policy.assign_batch_bulk(device_ids[start:], now)
        grouped = {}
        for j, request in proposals:
            decisions[start + j] = request.request_id
            grouped.setdefault(request.request_id, (request, []))[1].append(
                device_ids[start + j]
            )
        for request, assigned in grouped.values():
            request.record_assignments_bulk(assigned, now)
        if consumed == 0:
            break
        start += consumed
    return decisions


#: Protocol name -> driver; the scalar walk is the oracle.
RUNNERS = {"scalar": run_scalar, "bulk": run_bulk}


def diverse_devices(n, id_base=0):
    """A cohort spanning the capability spectrum, ascending device ids."""
    devices = []
    for i in range(n):
        devices.append(
            make_device(
                device_id=id_base + i,
                cpu=0.1 + 0.8 * ((i * 7) % 10) / 10.0,
                mem=0.1 + 0.8 * ((i * 3) % 10) / 10.0,
                speed=0.5 + ((i * 11) % 10) / 10.0,
            )
        )
    return devices


def test_bulk_matches_scalar_venn():
    jobs = [
        make_job(1, GENERAL, demand=9),
        make_job(2, HIGH_PERFORMANCE, demand=6),
        make_job(3, MEMORY_RICH, demand=4),
    ]
    devices = diverse_devices(50)
    scal_policy, _ = build_policy("venn", jobs, checkins=devices)
    bulk_policy, _ = build_policy("venn", jobs, checkins=devices)
    assert run_bulk(bulk_policy, devices, 10.0) == run_scalar(
        scal_policy, devices, 10.0
    )


# --------------------------------------------------------------------- #
# Quota edges
# --------------------------------------------------------------------- #
def test_zero_remaining_demand_skipped_identically():
    """A request whose demand was fully assigned before the cohort must be
    invisible to both protocols (the memoized candidate list may still
    hold it; the per-device demand probe must skip it)."""
    jobs = [make_job(1, GENERAL, demand=2), make_job(2, GENERAL, demand=5)]
    devices = diverse_devices(10)
    results = {}
    for mode, runner in RUNNERS.items():
        policy, requests = build_policy("venn", jobs, checkins=devices)
        # Exhaust job 1's demand out-of-band, as if an earlier sweep
        # committed it, then let the policy observe the drained request.
        requests[0].record_assignment(900, 5.0)
        requests[0].record_assignment(901, 5.0)
        results[mode] = runner(policy, devices, 10.0)
    assert results["bulk"] == results["scalar"]
    assert 1 not in results["scalar"]


def test_mid_batch_demand_zeroing_stops_bulk_walk():
    """The ledger walk must stop at the proposal that zeroes a request's
    demand — the engine re-filters there — and report the consulted
    prefix, never deciding past it."""
    jobs = [make_job(1, GENERAL, demand=3)]
    devices = diverse_devices(10)
    policy, _ = build_policy("venn", jobs, checkins=devices)
    consumed, proposals = policy.assign_batch_bulk(
        [device.device_id for device in devices], 10.0
    )
    assert len(proposals) == 3
    # The third proposal zeroes the ledger; the walk stops right there.
    assert consumed == proposals[-1][0] + 1
    assert consumed < len(devices)


def test_mid_batch_close_is_respected():
    """A request closed between consults (lifecycle event) is skipped by
    the batch walk exactly like the scalar walk."""
    jobs = [make_job(1, GENERAL, demand=4), make_job(2, GENERAL, demand=4)]
    devices = diverse_devices(8)
    results = {}
    for mode, runner in RUNNERS.items():
        policy, requests = build_policy("venn", jobs, checkins=devices)
        requests[0].state = RequestState.CANCELLED
        results[mode] = runner(policy, devices, 10.0)
    assert results["bulk"] == results["scalar"]
    assert 1 not in results["scalar"]


def test_already_assigned_device_not_reassigned():
    """A device in ``assigned_ids`` must be skipped for that request by
    every protocol (the one-report-per-device rule)."""
    jobs = [make_job(1, GENERAL, demand=5)]
    devices = diverse_devices(4)
    results = {}
    for mode, runner in RUNNERS.items():
        policy, requests = build_policy("venn", jobs, checkins=devices)
        requests[0].record_assignment(devices[1].device_id, 5.0)
        results[mode] = runner(policy, devices, 10.0)
    assert results["bulk"] == results["scalar"]
    assert results["scalar"][1] is None


# --------------------------------------------------------------------- #
# Memo invalidation
# --------------------------------------------------------------------- #
def test_candidate_memo_invalidated_on_plan_bump():
    """A new request arriving mid-stream must be visible to the batched
    walk: the lifecycle hook dirties the plan, the refresh bumps
    ``plan_version``, and the memoized candidate lists are rebuilt."""
    jobs = [make_job(1, GENERAL, demand=2)]
    devices = diverse_devices(30)
    policy, _ = build_policy("venn", jobs, checkins=devices)
    assert run_bulk(policy, devices[:10], 10.0).count(1) == 2
    # Open a second job after the first cohort drained job 1.
    job2 = make_job(2, GENERAL, demand=3)
    policy.on_job_arrival(job2, 20.0)
    request2 = ResourceRequest(
        request_id=2,
        job_id=2,
        demand=3,
        submit_time=20.0,
        deadline=1220.0,
        min_reports=job2.min_reports,
    )
    policy.on_request_open(request2, 20.0)
    second = run_bulk(policy, devices[10:20], 20.0)
    assert second.count(2) == 3


# --------------------------------------------------------------------- #
# record_assignments_bulk protocol units
# --------------------------------------------------------------------- #
def make_request(demand=3):
    return ResourceRequest(
        request_id=1,
        job_id=1,
        demand=demand,
        submit_time=0.0,
        deadline=100.0,
        min_reports=1,
    )


def test_bulk_record_matches_sequential():
    seq = make_request(4)
    bulk = make_request(4)
    for device_id in (10, 11, 12):
        seq.record_assignment(device_id, 5.0)
    bulk.record_assignments_bulk([10, 11, 12], 5.0)
    assert bulk.remaining_demand == seq.remaining_demand == 1
    # Same ids, same times, same (assignment) order.
    assert list(bulk.assigned_ids.items()) == list(seq.assigned_ids.items())
    assert bulk.state == seq.state


def test_bulk_record_rejects_overflow():
    request = make_request(2)
    with pytest.raises(ValueError):
        request.record_assignments_bulk([1, 2, 3], 5.0)


def test_bulk_record_rejects_duplicates():
    request = make_request(3)
    request.record_assignment(7, 1.0)
    with pytest.raises(ValueError):
        request.record_assignments_bulk([8, 7], 5.0)


def test_bulk_record_rejects_closed_request():
    request = make_request(2)
    request.state = RequestState.CANCELLED
    with pytest.raises(ValueError):
        request.record_assignments_bulk([1], 5.0)


# --------------------------------------------------------------------- #
# Hypothesis differential: random plans, cohorts and demand shapes
# --------------------------------------------------------------------- #
@st.composite
def scenario(draw):
    num_jobs = draw(st.integers(min_value=1, max_value=5))
    jobs = []
    for job_id in range(1, num_jobs + 1):
        requirement = draw(st.sampled_from(CATEGORIES))
        demand = draw(st.integers(min_value=1, max_value=12))
        jobs.append(make_job(job_id, requirement, demand=demand))
    num_devices = draw(st.integers(min_value=1, max_value=40))
    devices = []
    for i in range(num_devices):
        devices.append(
            make_device(
                device_id=i,
                cpu=draw(
                    st.floats(
                        min_value=0.05, max_value=1.0, allow_nan=False
                    )
                ),
                mem=draw(
                    st.floats(
                        min_value=0.05, max_value=1.0, allow_nan=False
                    )
                ),
                speed=draw(
                    st.floats(min_value=0.3, max_value=2.0, allow_nan=False)
                ),
            )
        )
    pre_assigned = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_jobs - 1),
                st.integers(min_value=0, max_value=max(0, num_devices - 1)),
            ),
            max_size=5,
        )
    )
    return jobs, devices, pre_assigned


@given(scenario())
@settings(max_examples=60, deadline=None)
def test_hypothesis_bulk_matches_scalar(scene):
    jobs, devices, pre_assigned = scene
    results = {}
    for mode, runner in RUNNERS.items():
        policy, requests = build_policy("venn", jobs, checkins=devices)
        for job_index, device_index in pre_assigned:
            request = requests[job_index]
            device_id = devices[device_index].device_id
            if (
                request.remaining_demand > 0
                and device_id not in request.assigned_ids
            ):
                request.record_assignment(device_id, 1.0)
        results[mode] = runner(policy, devices, 10.0)
    assert results["bulk"] == results["scalar"]
