"""Incremental-vs-full plan-maintenance equivalence and delta-layer units.

The headline guarantee of the incremental maintenance subsystem
(``repro/core/plan_delta.py``) is that a scheduler running
``plan_maintenance="incremental"`` makes **bit-identical** scheduling
decisions to the from-scratch ``build_plan`` oracle at every decision
point.  The property tests here drive *random trigger sequences* — job
arrivals across overlapping/disjoint requirement pools, device check-ins,
assignments, round completions and aborts, job departures — through a twin
pair of schedulers (one per mode) and after **every** operation assert

* equal plans: group order, per-group job order, atom preference lists and
  the full allocation state including exact float supply rates, and
* equal check-in behaviour: the patched ``AtomIndex`` yields the same
  candidate tuples as the oracle's freshly built one, for known atoms and
  fallback signatures alike, and stays consistent with the legacy linear
  flatten of its own (mutated) plan.

Unit tests cover the pieces: which path (full rebuild or in-place update)
serves each trigger, in-place index patching (same index object across
updates), the exact-zero-drift allocation skip, and the estimator's
signature version.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import plan_delta
from repro.core.requirements import (
    DEFAULT_CATEGORIES,
    EligibilityRequirement,
    GENERAL,
    compute_signatures,
)
from repro.core.scheduler import VennScheduler
from repro.core.types import (
    DeviceFleet,
    DeviceProfile,
    JobSpec,
    RequestState,
    ResourceRequest,
)

#: Requirement pool mixing the four paper categories with two data-domain
#: requirements, so overlapping, contained and disjoint eligible sets all
#: occur in the random scenarios.
POOL = list(DEFAULT_CATEGORIES) + [
    EligibilityRequirement("kb_mid", min_cpu=0.3, data_domain="keyboard"),
    EligibilityRequirement("emoji_any", data_domain="emoji"),
]


def pool_device(device_id: int) -> DeviceProfile:
    """Deterministic device profile per id (ids repeat across operations,
    so the profile must be a pure function of the id)."""
    rng = np.random.default_rng(1_000_003 + device_id)
    domains = []
    if rng.random() < 0.4:
        domains.append("keyboard")
    if rng.random() < 0.3:
        domains.append("emoji")
    return DeviceProfile(
        device_id=device_id,
        cpu_score=float(rng.random()),
        memory_score=float(rng.random()),
        data_domains=frozenset(domains),
    )


#: Every device id the scenarios use, as the population a scheduler binds.
POOL_FLEET = DeviceFleet.of(pool_device(i) for i in range(121))
POOL_SIGNATURES = compute_signatures(POOL_FLEET, POOL)


def pool_scheduler(**kwargs) -> VennScheduler:
    """A Venn scheduler bound to :data:`POOL_FLEET`."""
    sched = VennScheduler(**kwargs)
    sched.bind_fleet(POOL_FLEET, *POOL_SIGNATURES)
    return sched


class TwinHarness:
    """Drives one trigger sequence through both maintenance modes."""

    def __init__(self, seed: int) -> None:
        self.full = pool_scheduler(num_tiers=1, plan_maintenance="full")
        self.inc = pool_scheduler(num_tiers=1, plan_maintenance="incremental")
        self.schedulers = (self.full, self.inc)
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        self.next_job_id = 0
        self.next_request_id = 0
        #: job_id -> (spec, rounds_left, (request_full, request_inc) | None)
        self.jobs = {}

    # ---- operations -------------------------------------------------- #
    def tick(self) -> None:
        self.now += float(self.rng.random() * 60.0) + 1.0

    def _open_request(self, job_id: int) -> None:
        spec, rounds_left, _ = self.jobs[job_id]
        self.next_request_id += 1
        pair = []
        for sched in self.schedulers:
            request = ResourceRequest(
                request_id=self.next_request_id,
                job_id=job_id,
                demand=spec.demand_per_round,
                submit_time=self.now,
                deadline=self.now + 50_000.0,
                min_reports=spec.min_reports,
            )
            sched.on_request_open(request, self.now)
            pair.append(request)
        self.jobs[job_id] = (spec, rounds_left, tuple(pair))

    def arrive(self, req_idx: int, demand: int, rounds: int) -> None:
        self.next_job_id += 1
        spec = JobSpec(
            job_id=self.next_job_id,
            requirement=POOL[req_idx % len(POOL)],
            demand_per_round=demand,
            num_rounds=rounds,
            arrival_time=self.now,
            round_deadline=50_000.0,
        )
        self.jobs[spec.job_id] = (spec, rounds, None)
        for sched in self.schedulers:
            sched.on_job_arrival(spec, self.now)
        self._open_request(spec.job_id)

    def checkin(self, device_id: int) -> None:
        for sched in self.schedulers:
            sched.on_device_checkin(device_id, self.now)

    def assign(self, device_id: int) -> None:
        got_full = self.full.assign(device_id, self.now)
        got_inc = self.inc.assign(device_id, self.now)
        assert (got_full is None) == (got_inc is None), (
            f"assign divergence for device {device_id}: "
            f"full={got_full} incremental={got_inc}"
        )
        if got_full is None:
            return
        assert got_full.job_id == got_inc.job_id
        assert got_full.request_id == got_inc.request_id
        # Mimic the engine: a returned request receives the assignment.
        got_full.record_assignment(device_id, self.now)
        got_inc.record_assignment(device_id, self.now)

    def close(self, completed: bool, pick: int) -> None:
        open_jobs = sorted(
            job_id for job_id, (_, _, pair) in self.jobs.items()
            if pair is not None
        )
        if not open_jobs:
            return
        job_id = open_jobs[pick % len(open_jobs)]
        spec, rounds_left, pair = self.jobs[job_id]
        for request in pair:
            request.state = (
                RequestState.COMPLETED if completed else RequestState.ABORTED
            )
            request.close_time = self.now
        self.full.on_request_closed(pair[0], self.now)
        self.inc.on_request_closed(pair[1], self.now)
        self.jobs[job_id] = (spec, rounds_left, None)
        if completed:
            rounds_left -= 1
            self.jobs[job_id] = (spec, rounds_left, None)
            if rounds_left <= 0:
                del self.jobs[job_id]
                for sched in self.schedulers:
                    sched.on_job_finished(job_id, self.now)
                return
        # Next round (or retry of the aborted one).
        self._open_request(job_id)

    # ---- equivalence assertions -------------------------------------- #
    def assert_equivalent(self) -> None:
        plan_full = self.full.refresh_plan(self.now)
        plan_inc = self.inc.refresh_plan(self.now)
        assert plan_full.group_order == plan_inc.group_order
        assert plan_full.job_order == plan_inc.job_order
        assert plan_full.atom_preferences == plan_inc.atom_preferences
        assert set(plan_full.allocations) == set(plan_inc.allocations)
        for key, alloc_full in plan_full.allocations.items():
            alloc_inc = plan_inc.allocations[key]
            assert alloc_full.allocated_atoms == alloc_inc.allocated_atoms
            assert alloc_full.supply_rate == alloc_inc.supply_rate
            assert alloc_full.allocated_rate == alloc_inc.allocated_rate
            assert alloc_full.queue_length == alloc_inc.queue_length
        index_full = plan_full.index()
        index_inc = plan_inc.index()
        probes = list(plan_full.atom_preferences)
        names = sorted({g for g in plan_full.job_order})
        probes.append(frozenset(names))  # fallback-path probe
        probes.append(frozenset(names[: len(names) // 2]))
        for sig in probes:
            assert index_full.candidates(sig) == index_inc.candidates(sig), (
                f"index divergence for {sorted(sig)}"
            )
            # The patched index must also stay consistent with the legacy
            # flatten of its own (mutated) plan.
            assert index_inc.candidates(sig) == tuple(
                plan_inc.ordered_jobs_for(sig)
            )


OPERATION = st.one_of(
    st.tuples(
        st.just("arrive"),
        st.integers(min_value=0, max_value=len(POOL) - 1),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(st.just("checkin"), st.integers(min_value=0, max_value=120)),
    st.tuples(st.just("assign"), st.integers(min_value=0, max_value=120)),
    st.tuples(
        st.just("close"),
        st.booleans(),
        st.integers(min_value=0, max_value=10),
    ),
)


class TestIncrementalEquivalence:
    @given(
        ops=st.lists(OPERATION, min_size=4, max_size=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_trigger_sequences_match_oracle(self, ops, seed):
        """After every operation of a random trigger sequence, the
        incrementally maintained plan equals the full-rebuild oracle's —
        including exact float supply rates — and both indexes agree."""
        harness = TwinHarness(seed)
        # Always start with one job so assign/close have a target early.
        harness.arrive(0, 10, 2)
        harness.assert_equivalent()
        for op in ops:
            harness.tick()
            if op[0] == "arrive":
                harness.arrive(op[1], op[2], op[3])
            elif op[0] == "checkin":
                harness.checkin(op[1])
            elif op[0] == "assign":
                harness.assign(op[1])
            elif op[0] == "close":
                harness.close(op[1], op[2])
            harness.assert_equivalent()

    @given(
        ops=st.lists(OPERATION, min_size=4, max_size=25),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_fifo_ablation_matches_oracle(self, ops, seed):
        """The FIFO ablation (enable_scheduling=False) orders by arrival
        time; the incremental path must reproduce it exactly too."""
        harness = TwinHarness(seed)
        harness.full = pool_scheduler(
            num_tiers=1, plan_maintenance="full", enable_scheduling=False
        )
        harness.inc = pool_scheduler(
            num_tiers=1,
            plan_maintenance="incremental",
            enable_scheduling=False,
        )
        harness.schedulers = (harness.full, harness.inc)
        harness.arrive(1, 8, 2)
        for op in ops:
            harness.tick()
            if op[0] == "arrive":
                harness.arrive(op[1], op[2], op[3])
            elif op[0] == "checkin":
                harness.checkin(op[1])
            elif op[0] == "assign":
                harness.assign(op[1])
            elif op[0] == "close":
                harness.close(op[1], op[2])
            harness.assert_equivalent()


class TestTriggerClassification:
    def _request(self, job, request_id):
        return ResourceRequest(
            request_id=request_id,
            job_id=job.job_id,
            demand=job.demand_per_round,
            submit_time=0.0,
            deadline=10_000.0,
            min_reports=job.min_reports,
        )

    def test_known_requirement_arrival_is_incremental(self):
        sched = VennScheduler(num_tiers=1)
        job1 = JobSpec(1, GENERAL, demand_per_round=4, num_rounds=1)
        job2 = JobSpec(2, GENERAL, demand_per_round=6, num_rounds=1)
        sched.on_job_arrival(job1, 0.0)
        sched.on_request_open(self._request(job1, 1), 0.0)
        sched.refresh_plan(1.0)
        rebuilds = sched.plan_profile.full_rebuilds
        sched.on_job_arrival(job2, 2.0)
        sched.on_request_open(self._request(job2, 2), 2.0)
        sched.refresh_plan(3.0)
        assert sched.plan_profile.full_rebuilds == rebuilds  # served incrementally
        assert sched.plan_profile.incremental_updates == 1

    def test_new_requirement_arrival_forces_full_rebuild(self):
        sched = VennScheduler(num_tiers=1)
        job1 = JobSpec(1, GENERAL, demand_per_round=4, num_rounds=1)
        job2 = JobSpec(
            2, POOL[1], demand_per_round=6, num_rounds=1
        )  # compute_rich: new requirement
        sched.on_job_arrival(job1, 0.0)
        sched.on_request_open(self._request(job1, 1), 0.0)
        sched.refresh_plan(1.0)
        rebuilds = sched.plan_profile.full_rebuilds
        sched.on_job_arrival(job2, 2.0)
        sched.refresh_plan(3.0)
        assert sched.plan_profile.full_rebuilds == rebuilds + 1
        assert sched.plan_profile.incremental_updates == 0

    def test_last_departure_forces_full_rebuild(self):
        sched = VennScheduler(num_tiers=1)
        job1 = JobSpec(1, GENERAL, demand_per_round=4, num_rounds=1)
        job2 = JobSpec(2, POOL[1], demand_per_round=6, num_rounds=1)
        for job in (job1, job2):
            sched.on_job_arrival(job, 0.0)
        sched.refresh_plan(1.0)
        rebuilds = sched.plan_profile.full_rebuilds
        sched.on_job_finished(2, 2.0)  # last compute_rich job
        sched.refresh_plan(3.0)
        assert sched.plan_profile.full_rebuilds == rebuilds + 1
        assert sched.plan_profile.incremental_updates == 0

    def test_fairness_active_falls_back_to_oracle(self):
        sched = VennScheduler(num_tiers=1, epsilon=0.5)
        job = JobSpec(1, GENERAL, demand_per_round=4, num_rounds=1)
        sched.on_job_arrival(job, 0.0)
        sched.on_request_open(self._request(job, 1), 0.0)
        sched.refresh_plan(1.0)
        sched.on_request_closed(self._request(job, 1), 2.0)
        sched.refresh_plan(3.0)
        assert sched.plan_profile.incremental_updates == 0
        assert sched.plan_profile.full_rebuilds == 2

    def test_full_mode_never_updates_incrementally(self):
        sched = VennScheduler(num_tiers=1, plan_maintenance="full")
        job1 = JobSpec(1, GENERAL, demand_per_round=4, num_rounds=1)
        job2 = JobSpec(2, GENERAL, demand_per_round=6, num_rounds=1)
        sched.on_job_arrival(job1, 0.0)
        sched.refresh_plan(1.0)
        sched.on_job_arrival(job2, 2.0)
        sched.refresh_plan(3.0)
        assert sched.plan_profile.incremental_updates == 0
        assert sched.plan_profile.full_rebuilds == 2

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            VennScheduler(plan_maintenance="sometimes")


class TestIndexPatching:
    def test_index_patched_in_place_across_updates(self):
        """Incremental refreshes keep the same plan and index objects,
        patching the index instead of rebuilding it."""
        sched = pool_scheduler(num_tiers=1)
        job1 = JobSpec(1, GENERAL, demand_per_round=4, num_rounds=2)
        job2 = JobSpec(2, GENERAL, demand_per_round=6, num_rounds=2)
        sched.on_job_arrival(job1, 0.0)
        sched.on_request_open(
            ResourceRequest(1, 1, 4, 0.0, 10_000.0, 1), 0.0
        )
        sched.on_device_checkin(1, 1.0)
        sched.assign(1, 1.0)  # forces plan build + index build
        plan_before = sched.plan
        index_before = plan_before.index()
        patched_before = sched.plan_profile.index_atoms_patched
        # Same-requirement arrival: incremental path must patch, not drop.
        sched.on_job_arrival(job2, 2.0)
        sched.on_request_open(
            ResourceRequest(2, 2, 6, 2.0, 10_000.0, 1), 2.0
        )
        sched.assign(2, 3.0)
        assert sched.plan is plan_before
        assert sched.plan.index() is index_before
        assert sched.plan_profile.index_atoms_patched > patched_before
        # The patched candidates must include the new job.
        jobs_listed = {
            job_id
            for _, job_id in index_before.candidates(frozenset({"general"}))
        }
        assert jobs_listed == {1, 2}


@pytest.fixture
def allocation_runs(monkeypatch):
    """Phase-2/3 runs of incremental updates, counted as they happen.

    ``PlanMaintainer.apply`` reaches ``_phase23_allocate`` through
    ``repro.core.plan_delta``; a full rebuild reaches it inside
    ``build_plan``, so only the incremental re-runs are counted."""
    runs = []
    allocate = plan_delta._phase23_allocate

    def counted(*args, **kwargs):
        runs.append(None)
        return allocate(*args, **kwargs)

    monkeypatch.setattr(plan_delta, "_phase23_allocate", counted)
    return runs


class TestSupplyDriftTolerance:
    def _drive(self):
        sched = pool_scheduler(num_tiers=1)
        job = JobSpec(1, GENERAL, demand_per_round=50, num_rounds=5)
        sched.on_job_arrival(job, 0.0)
        request = ResourceRequest(1, 1, 50, 0.0, 1e9, 1)
        sched.on_request_open(request, 0.0)
        sched.refresh_plan(0.5)
        now = 1.0
        # Alternating check-ins (supply drift) and no-op request churn:
        # close the untouched request and reopen it with the same demand,
        # so queue lengths and job order stay fixed while rates drift.
        # The irregular time steps make the drift genuinely non-zero
        # (evenly spaced check-ins would keep count/span constant).
        for i in range(2, 12):
            sched.on_device_checkin(i, now)
            request.state = RequestState.ABORTED
            sched.on_request_closed(request, now)
            request = ResourceRequest(i, 1, 50, now, 1e9, 1)
            sched.on_request_open(request, now)
            now += 100.0 + 13.0 * i
            sched.refresh_plan(now)
        return sched

    def test_zero_tolerance_always_reruns_allocation(self, allocation_runs):
        sched = self._drive()
        assert len(allocation_runs) == sched.plan_profile.incremental_updates
        assert len(allocation_runs) >= 10

    def test_zero_tolerance_skips_only_at_exact_zero_drift(
        self, allocation_runs
    ):
        """Evenly spaced check-ins keep count/span — and hence every atom
        rate — exactly constant; the zero-drift skip may then keep the
        allocation because the oracle would recompute the very same one."""
        sched = pool_scheduler(num_tiers=1)
        job = JobSpec(1, GENERAL, demand_per_round=50, num_rounds=5)
        sched.on_job_arrival(job, 0.0)
        request = ResourceRequest(1, 1, 50, 0.0, 1e9, 1)
        sched.on_request_open(request, 0.0)
        sched.refresh_plan(0.5)
        now = 1.0
        for i in range(2, 8):
            sched.on_device_checkin(i, now)
            request.state = RequestState.ABORTED
            sched.on_request_closed(request, now)
            request = ResourceRequest(i, 1, 50, now, 1e9, 1)
            sched.on_request_open(request, now)
            now += 100.0  # constant cadence -> rate == count/span constant
            sched.refresh_plan(now)
        assert len(allocation_runs) < sched.plan_profile.incremental_updates
        assert sched.plan.group_order == ["general"]
