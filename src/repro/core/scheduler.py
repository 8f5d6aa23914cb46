"""The end-to-end Venn scheduling policy (paper §4).

:class:`VennScheduler` wires together the four pieces of the paper's design:

* the **supply estimator** (§4.4) that tracks eligible-device arrival rates
  per atom over a 24-hour window,
* **Algorithm 1** (Intersection Resource Scheduling, §4.2) which turns the
  current jobs + supply estimates into a :class:`~repro.core.irs.SchedulingPlan`
  (a fixed job order plus an atom-to-group allocation),
* **Algorithm 2** (tier-based device matching, §4.3) which, per served
  request, may restrict the head job to one capability tier when that is
  predicted to lower its JCT, and
* the **fairness controller** (§4.4) whose knob ε bounds starvation of large
  jobs.

The plan is invalidated on job/request arrival and completion — exactly the
trigger points named in the paper — and consulted at device check-in through
the plan's :class:`~repro.core.atom_index.AtomIndex`: the device's atom
signature — its bound signature (``bind_fleet``) restricted to the live
requirements, memoised per signature id — resolves to a precomputed
candidate tuple, so a check-in is a few lookups plus a walk over the
(usually short) candidate prefix.

How an invalidated plan is brought up to date is governed by the
``plan_maintenance`` knob: ``"incremental"`` (default) marks what each
trigger touched on a :class:`~repro.core.plan_delta.PlanDelta` and serves
single-group triggers by mutating the existing plan in place through a
:class:`~repro.core.plan_delta.PlanMaintainer` — re-sorting only the dirty
group, re-running allocation through the exact ``build_plan`` phase code,
and patching the live index; ``"full"`` preserves the paper-literal
from-scratch :meth:`VennScheduler.rebuild_plan` on every trigger and serves
as the oracle for equivalence tests.  Requirement-set changes and active
fairness (ε > 0) always fall back to the oracle.  Both modes make
bit-identical scheduling decisions.  :class:`PlanMaintenanceProfile` counts
how the refreshes were served (``VennScheduler.plan_profile``); the engine
copies it into ``SimulationMetrics.plan_maintenance``, where
``python3 -m bench`` reads its ``core.plan_*`` metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from .fairness import FairnessController
from .irs import SchedulingPlan, build_plan
from .job_group import JobGroupRegistry
from .matching import NO_TIER, TierDecision, TierMatcher, device_capacity_metric
from .plan_delta import PLAN_MAINTENANCE_MODES, PlanMaintainer
from .policy import BasePolicy, SeededRngMixin
from .requirements import AtomSpace
from .supply import SupplyEstimator
from .types import JobSpec, RequestState, ResourceRequest


@dataclass
class PlanMaintenanceProfile:
    """How one run's plan refreshes were served, and what they cost.

    Bumped on the maintenance paths only, never per check-in.  The
    sim/core layering keeps it here: ``repro.sim`` reads it, and
    ``repro.core`` never imports ``repro.sim``.
    """

    #: Full ``build_plan`` runs (atom space, registry and plan from scratch).
    full_rebuilds: int = 0
    #: In-place incremental plan updates (each one a full rebuild avoided).
    incremental_updates: int = 0
    #: Atom signatures re-flattened by in-place ``AtomIndex`` patches.
    index_atoms_patched: int = 0
    #: Wall time spent maintaining the plan, either path (seconds).
    maintenance_time_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (``SimulationMetrics.plan_maintenance``)."""
        return {
            "full_rebuilds": self.full_rebuilds,
            "incremental_updates": self.incremental_updates,
            "index_atoms_patched": self.index_atoms_patched,
            "maintenance_time_s": round(self.maintenance_time_s, 6),
        }


class VennScheduler(SeededRngMixin, BasePolicy):
    """Contention-aware scheduling + resource-aware matching (the paper's Venn).

    Parameters
    ----------
    num_tiers:
        Number of device capability tiers ``V`` used by Algorithm 2.  ``1``
        disables tier-based matching (the "Venn w/o matching" ablation).
        A :class:`~repro.core.matching.TierMatcher` per job — profiling its
        responses, fitting its tiers at each round close — exists only when
        matching is on and ``V > 1``.
    epsilon:
        Fairness knob ε of §4.4.  ``0`` disables starvation prevention.
    enable_scheduling:
        When ``False`` the IRS job order is replaced by FIFO while matching
        stays on (the "Venn w/o scheduling" ablation of Figure 11).
    enable_matching:
        When ``False`` Algorithm 2 never restricts a job to a tier.
    seed:
        Seed of the RNG used for Algorithm 2's random tier choice.  When
        ``None``, the scheduler adopts the simulation's injected generator
        via :meth:`bind_rng`.
    plan_maintenance:
        ``"incremental"`` (default) serves plan-invalidating triggers with
        in-place deltas through :class:`~repro.core.plan_delta.PlanMaintainer`
        whenever that is provably decision-equivalent, falling back to the
        full :meth:`rebuild_plan` oracle on requirement-set changes and
        active fairness.  ``"full"`` rebuilds from scratch on every trigger
        (the paper-literal behaviour, kept as the equivalence oracle).
    """

    name = "venn"

    def __init__(
        self,
        num_tiers: int = 4,
        epsilon: float = 0.0,
        enable_scheduling: bool = True,
        enable_matching: bool = True,
        seed: Optional[int] = None,
        plan_maintenance: str = "incremental",
    ) -> None:
        super().__init__()
        if num_tiers < 1:
            raise ValueError("num_tiers must be >= 1")
        if plan_maintenance not in PLAN_MAINTENANCE_MODES:
            raise ValueError(
                f"plan_maintenance must be one of {PLAN_MAINTENANCE_MODES}"
            )
        self.num_tiers = int(num_tiers)
        self.enable_scheduling = bool(enable_scheduling)
        self.enable_matching = bool(enable_matching)
        self.plan_maintenance = plan_maintenance
        self.supply = SupplyEstimator()
        self.fairness = FairnessController(epsilon=epsilon)
        self._init_rng(seed)
        self._atom_space: Optional[AtomSpace] = None
        #: ``sig id -> signature`` restricted to the live requirement set
        #: (``None``: not yet seen), valid for the current atom space.
        self._restricted: list = []
        #: Algorithm 2's capability of every bound device, by row.
        self._capacity: Optional[np.ndarray] = None
        self._plan: SchedulingPlan = SchedulingPlan()
        self._plan_dirty = True
        #: Monotonic version of the decision surface: bumped whenever the
        #: plan is brought up to date (full rebuild or incremental apply).
        self.plan_version = 0
        self._matchers: Dict[int, TierMatcher] = {}
        #: Cached tier decision per open request id.
        self._tier_decisions: Dict[int, TierDecision] = {}
        #: Per-run plan-maintenance counters + wall time.
        self.plan_profile = PlanMaintenanceProfile()
        self._maintainer = PlanMaintainer()
        #: Jobs whose ordering inputs may have changed since the last plan
        #: refresh.  Every demand change flows through a lifecycle trigger
        #: or through :meth:`assign` returning a request (the engine then
        #: records the assignment), so refreshing only these jobs is exact
        #: — and O(changed) instead of O(all jobs) per refresh.
        self._demand_dirty: set = set()
        #: signature -> pruned live-candidate entries for the *current*
        #: decision surface, valid for exactly one ``plan_version`` (see
        #: :meth:`_live_candidates`).
        self._live_memo: Dict = {}
        self._live_memo_key = -1
        # Derive the ablation-aware display name.
        if not self.enable_scheduling and self.enable_matching:
            self.name = "venn_wo_sched"
        elif self.enable_scheduling and not self.enable_matching:
            self.name = "venn_wo_match"
        elif not self.enable_scheduling and not self.enable_matching:
            self.name = "fifo"

    # ------------------------------------------------------------------ #
    # Lifecycle hooks (each one marks what its trigger invalidated)
    # ------------------------------------------------------------------ #
    @property
    def _incremental_enabled(self) -> bool:
        """Whether triggers may be served by the in-place delta layer.

        Active fairness (ε > 0) makes every job's adjusted demand a
        function of *now*, so no group is ever clean and the full oracle is
        the only correct refresh.
        """
        return (
            self.plan_maintenance == "incremental"
            and self.fairness.epsilon == 0.0
        )

    def _requirement_shared(self, job_id: int, requirement) -> bool:
        """True when another live job carries an identical requirement."""
        for other_id, other in self.jobs.items():
            if other_id != job_id and other.requirement == requirement:
                return True
        return False

    def on_job_arrival(self, job: JobSpec, now: float) -> None:
        super().on_job_arrival(job, now)
        self.fairness.register_job(job, now)
        if self.enable_matching and self.num_tiers > 1:
            self._matchers[job.job_id] = TierMatcher(
                num_tiers=self.num_tiers, rng=self._rng
            )
        if self._incremental_enabled and self._requirement_shared(
            job.job_id, job.requirement
        ):
            # Known requirement: the atom space — and with it every cached
            # device signature — is unchanged; only this group is dirty.
            self._maintainer.delta.mark_group(job.requirement.name)
            self._demand_dirty.add(job.job_id)
        else:
            if self._incremental_enabled:
                self._maintainer.delta.mark_full()
            self._forget_atom_space()  # requirement set changed
        self._plan_dirty = True

    def on_job_finished(self, job_id: int, now: float) -> None:
        job = self.jobs.get(job_id)
        super().on_job_finished(job_id, now)
        self.fairness.forget_job(job_id)
        self._matchers.pop(job_id, None)
        if (
            self._incremental_enabled
            and job is not None
            and self._requirement_shared(job_id, job.requirement)
        ):
            # Other jobs keep the requirement alive: the group survives and
            # the atom space is unchanged.
            self._maintainer.delta.mark_removed(job_id, job.requirement.name)
            self._demand_dirty.discard(job_id)
        else:
            if self._incremental_enabled:
                self._maintainer.delta.mark_full()
            self._forget_atom_space()
        self._plan_dirty = True

    def on_request_open(self, request: ResourceRequest, now: float) -> None:
        super().on_request_open(request, now)
        if self._incremental_enabled:
            job = self.jobs.get(request.job_id)
            if job is not None:
                self._maintainer.delta.mark_group(job.requirement.name)
                self._demand_dirty.add(request.job_id)
        self._plan_dirty = True

    def on_request_closed(self, request: ResourceRequest, now: float) -> None:
        super().on_request_closed(request, now)
        self._tier_decisions.pop(request.request_id, None)
        matcher = self._matchers.get(request.job_id)
        if matcher is not None and request.state is RequestState.COMPLETED:
            matcher.record_round(
                request.scheduling_delay, request.response_collection_time
            )
        if self._incremental_enabled:
            job = self.jobs.get(request.job_id)
            if job is not None:
                self._maintainer.delta.mark_group(job.requirement.name)
                self._demand_dirty.add(request.job_id)
        self._plan_dirty = True

    def on_device_checkin(self, device_id: int, now: float) -> None:
        self.supply.record_checkin(self._signature_for(device_id), now)

    def on_device_checkin_batch(self, device_ids, times) -> None:
        """Record a batch of check-ins into the supply estimator (vectorized).

        Each distinct signature id in the batch restricts to the live
        requirement set exactly as :meth:`_signature_for` would, in
        first-occurrence (event) order, so new restricted signatures are
        observed in the per-event order.  Supply rings then update through
        :meth:`SupplyEstimator.record_checkins_batch`, which is
        state-identical to per-event recording.
        """
        sig_ids = self.sig_ids[self.fleet.rows(device_ids)]
        uniq, first = np.unique(sig_ids, return_index=True)
        remap = np.zeros(int(uniq[-1]) + 1, dtype=np.int64) if len(uniq) else None
        restricted: list = []
        for j in np.argsort(first, kind="stable"):
            sid = int(uniq[j])
            sig = self._restricted[sid]
            remap[sid] = len(restricted)
            restricted.append(self._restrict(sid) if sig is None else sig)
        if restricted:
            self.supply.record_checkins_batch(remap[sig_ids], times, restricted)

    def on_response(
        self, request: ResourceRequest, device_id: int, now: float
    ) -> None:
        matcher = self._matchers.get(request.job_id)
        if matcher is None:
            return
        assigned_at = request.assigned_time_of(device_id)
        if assigned_at is None:
            return
        matcher.record_participation(
            self._capacity_of(device_id), max(0.0, now - assigned_at)
        )

    # ------------------------------------------------------------------ #
    # Plan construction
    # ------------------------------------------------------------------ #
    def bind_fleet(self, fleet, sig_ids, sig_table) -> None:
        super().bind_fleet(fleet, sig_ids, sig_table)
        self._restricted = [None] * len(sig_table)
        self._capacity = device_capacity_metric(fleet)

    def _forget_atom_space(self) -> None:
        """The requirement set changed: the atom space and every restricted
        signature are rebuilt lazily."""
        self._atom_space = None
        self._restricted = [None] * len(self.sig_table or ())

    def _ensure_atom_space(self) -> AtomSpace:
        if self._atom_space is None:
            requirements = list(self.iter_requirements())
            if not requirements:
                # An empty space is still valid; it only knows the empty atom.
                self._atom_space = AtomSpace([])
            else:
                self._atom_space = AtomSpace(requirements)
            # Re-observe signatures known to the supply estimator so that the
            # new space keeps atoms contributed by live devices.
            for sig in self.supply.observed_signatures():
                known = {
                    name for name in sig if name in self._atom_space.requirements
                }
                self._atom_space.observe_signature(frozenset(known))
        return self._atom_space

    def _restrict(self, sid: int):
        """``sig_table[sid]`` restricted to the live requirement names,
        observed as an atom and memoised for the current atom space.

        The bound table covers the workload's requirements, whose names
        are unique, so restricting by name is exact: the result is the
        signature a predicate walk over the live requirements would give.
        """
        space = self._ensure_atom_space()
        names = space.requirement_names
        sig = frozenset(n for n in self.sig_table[sid] if n in names)
        space.observe_signature(sig)
        self._restricted[sid] = sig
        return sig

    def _signature_for(self, device_id: int):
        """Atom signature of the device for the current atom space."""
        sid = self.sig_ids[self.fleet.row(device_id)]
        sig = self._restricted[sid]
        return self._restrict(sid) if sig is None else sig

    def _capacity_of(self, device_id: int) -> float:
        """Algorithm 2's capability of the device (its bound column)."""
        return self._capacity[self.fleet.row(device_id)]

    def rebuild_plan(self, now: float) -> SchedulingPlan:
        """Recompute the scheduling plan from scratch (Algorithm 1).

        This is the oracle path: incremental maintenance must produce plans
        equal to this one at every decision point.  Exposed for tests and
        for the scheduler-overhead benchmark (Figure 10)."""
        t0 = time.perf_counter()
        space = self._ensure_atom_space()
        num_active = max(1, len(self.jobs))
        open_jobs = [
            job_id
            for job_id, req in self.open_requests.items()
            if req.is_open and req.remaining_demand > 0
        ]
        remaining: Dict[int, float] = {}
        adjusted: Dict[int, float] = {}
        for job_id in self.jobs:
            raw = float(self.remaining_job_demand(job_id))
            remaining[job_id] = raw
            if self.enable_scheduling:
                adjusted[job_id] = self.fairness.adjusted_demand(
                    job_id, raw, now, num_active
                )
            else:
                # FIFO ablation: order by arrival time instead of demand.
                adjusted[job_id] = self.job_arrival.get(job_id, 0.0)
        registry = JobGroupRegistry.from_jobs(
            self.jobs, remaining, adjusted, open_jobs=open_jobs
        )
        queue_lengths: Dict[str, float] = {}
        for group in registry.groups():
            waiting = [
                e.job_id for e in group.entries.values() if e.has_open_request
            ]
            queue_lengths[group.key] = self.fairness.adjusted_queue_length(
                waiting, float(len(waiting)), now, num_active
            )
        rates = self.supply.rates(now)
        self._plan = build_plan(
            registry.groups(),
            space,
            rates,
            queue_lengths,
        )
        if self._incremental_enabled:
            # Snapshot the fresh state so later triggers can be served by
            # in-place deltas against this plan.
            self._maintainer.adopt(
                self._plan,
                registry,
                space,
                rates,
                self.supply.signature_version,
            )
        else:
            self._maintainer.reset()
        self._demand_dirty.clear()  # the fresh snapshot covers every job
        self._plan_dirty = False
        self.plan_version += 1
        self.plan_profile.full_rebuilds += 1
        self.plan_profile.maintenance_time_s += time.perf_counter() - t0
        return self._plan

    def _job_states(self) -> Iterator:
        """Ordering inputs of the jobs marked demand-dirty since the last
        refresh (jobs untouched by any trigger or assignment are unchanged
        by construction, so they are not re-derived).

        Only valid at ε == 0 (enforced by ``_incremental_enabled``), where
        the oracle's fairness adjustment is the identity: adjusted demand
        is the raw remaining demand, or the arrival time under the FIFO
        ablation."""
        for job_id in self._demand_dirty:
            job = self.jobs.get(job_id)
            if job is None:
                continue  # departed; handled via the delta's removed set
            raw = float(self.remaining_job_demand(job_id))
            if self.enable_scheduling:
                adjusted = float(raw)
            else:
                adjusted = self.job_arrival.get(job_id, 0.0)
            request = self.open_requests.get(job_id)
            has_open = (
                request is not None
                and request.is_open
                and request.remaining_demand > 0
            )
            yield job_id, job.requirement, raw, adjusted, has_open

    def refresh_plan(self, now: float) -> SchedulingPlan:
        """Bring the plan up to date using the configured maintenance mode.

        No-op when the plan is clean.  The full oracle serves it when
        incremental maintenance is off (``"full"`` mode or fairness ε > 0),
        when the accumulated :class:`~repro.core.plan_delta.PlanDelta` needs
        a full rebuild, or when the maintainer holds no plan or another
        one; the in-place delta path serves every other refresh."""
        if not self._plan_dirty:
            return self._plan
        maintainer = self._maintainer
        if (
            not self._incremental_enabled
            or maintainer.delta.needs_full
            or maintainer.plan is not self._plan
        ):
            return self.rebuild_plan(now)
        t0 = time.perf_counter()
        profile = self.plan_profile
        profile.index_atoms_patched += maintainer.apply(
            job_states=self._job_states(),
            rates=self.supply.rates(now),
            space=self._ensure_atom_space(),
            supply_version=self.supply.signature_version,
        )
        self._demand_dirty.clear()
        self._plan_dirty = False
        self.plan_version += 1
        profile.incremental_updates += 1
        profile.maintenance_time_s += time.perf_counter() - t0
        return self._plan

    @property
    def plan(self) -> SchedulingPlan:
        """The current scheduling plan (may be stale if marked dirty)."""
        return self._plan

    # ------------------------------------------------------------------ #
    # Assigning devices
    # ------------------------------------------------------------------ #
    def _tier_decision_for(self, request: ResourceRequest) -> TierDecision:
        decision = self._tier_decisions.get(request.request_id)
        if decision is not None:
            return decision
        matcher = self._matchers.get(request.job_id)
        decision = matcher.decide() if matcher is not None else NO_TIER
        self._tier_decisions[request.request_id] = decision
        return decision

    def _live_candidates(self, signature) -> list:
        """Pruned candidate entries for ``signature`` on the current plan.

        The :class:`~repro.core.atom_index.AtomIndex` candidate tuple is a
        *static* flattening of the plan — it still lists jobs whose request
        closed or whose demand is already satisfied, and the scalar walk
        re-discovers that per check-in.  This memo resolves each signature
        once per ``plan_version`` to the entries that can still matter:
        ``(job_id, request)`` for candidates whose request is open with
        unmet demand at resolution time.

        Pruning is exact for the whole ``plan_version``: demand never *rises*
        and a closed request never reopens without a lifecycle trigger,
        every lifecycle trigger marks the plan dirty, and every consult
        refreshes a dirty plan (bumping ``plan_version``) before touching
        the memo — so a pruned candidate is one the scalar walk would have
        skipped at every remaining consult of this version.  Entries
        that die *mid-version* (demand satisfied by a commit) stay in
        the list and are re-checked per device, exactly like the scalar
        walk.  Tier decisions resolve through :meth:`_tier_decision_for`
        at the same walk positions as the scalar path, so the matcher's
        rng draw order is untouched.
        """
        if self.plan_version != self._live_memo_key:
            self._live_memo_key = self.plan_version
            self._live_memo = {}
        memo = self._live_memo
        live = memo.get(signature)
        if live is None:
            open_requests = self.open_requests
            live = []
            for _group_key, job_id in self._plan.index().candidates(signature):
                request = open_requests.get(job_id)
                if (
                    request is not None
                    and request.is_open
                    and request.remaining_demand > 0
                ):
                    live.append((job_id, request))
            memo[signature] = live
        return live

    def _match_device(self, device_id: int, live: list):
        """Walk pruned live candidates in plan order: the first open request
        with unmet demand that the device is not already serving and whose
        tier accepts it wins; the first tier-restricted request is
        remembered as the fallback."""
        fallback: Optional[ResourceRequest] = None
        fallback_job = -1
        for job_id, request in live:
            if request.remaining_demand <= 0 or not request.is_open:
                continue
            if device_id in request.assigned_ids:
                # One device participates at most once per round request.
                continue
            decision = self._tier_decision_for(request)
            if decision is NO_TIER or decision.accepts(
                self._capacity_of(device_id)
            ):
                # The engine records the assignment right after this return,
                # changing the job's remaining demand: mark it so the next
                # incremental refresh re-derives exactly this job's inputs.
                self._demand_dirty.add(job_id)
                return request
            if fallback is None:
                # Remember the first tier-restricted request so the device is
                # not wasted when no later job in the order can use it.
                fallback = request
                fallback_job = job_id
        if fallback is not None:
            self._demand_dirty.add(fallback_job)
        return fallback

    def assign(self, device_id: int, now: float) -> Optional[ResourceRequest]:
        if not self.open_requests:
            return None
        if self._plan_dirty:
            self.refresh_plan(now)
        # The precomputed candidate tuple only lists groups contained in the
        # signature, so every candidate job is eligible by construction and
        # no per-job requirement re-check is needed; the per-generation memo
        # additionally drops candidates that are provably dead for the
        # current plan.
        return self._match_device(
            device_id, self._live_candidates(self._signature_for(device_id))
        )

    def assign_batch_bulk(self, device_ids, now: float):
        """Ledger-mode batched decisions: resolve a cohort prefix at once.

        Returns ``(consumed, proposals)`` where ``proposals`` is
        ``[(i, request), ...]`` — the proposal for ``device_ids[i]`` for
        every consulted device that matched — and ``consumed`` is how
        many devices were consulted, without any engine bookkeeping
        between decisions.  Demand coupling (an early device's assignment
        consuming demand a later device would have competed for) is
        replayed through a cohort-local ledger: each probe reads
        ``remaining_demand`` minus the proposals already made in this
        cohort, which is exactly the value the scalar oracle would observe
        after the engine committed those proposals.  Every other input the
        scalar walk reads (``is_open``, ``assigned_ids``, tier decisions)
        cannot change mid-cohort, and tier resolution still happens
        lazily at the same walk positions (identical rng draw order), so
        the proposal sequence is bit-identical to consult-commit-consult.

        The walk stops as soon as a proposal zeroes a request's ledger
        demand: the per-event loop removes the job from the pending pool
        at that commit, which can narrow the pending-requirement set and
        drop whole signatures from the remainder of the sweep.  Stopping
        there and letting the caller commit, re-filter and resume from
        ``device_ids[consumed:]`` reproduces the scalar sweep's per-consult
        narrowing check exactly — and is what keeps a sweep from walking
        thousands of no-longer-eligible devices after its last fillable
        request closes.

        The caller must commit every returned proposal at ``now`` before
        the next consult (see the fleet engine's ``_commit_cohort``).

        Signatures whose entire candidate list shows zero ledger demand
        are marked dead for the rest of the cohort: ledger demand is
        monotone non-increasing and ``is_open`` static within a call, so
        a later same-signature device could only repeat the fruitless
        walk — no rng draws, no proposals — and skipping it outright is
        decision-identical while turning a demand-exhausted stretch of
        the cohort from O(devices x candidates) into two dict probes
        each.
        """
        proposals: list = []
        if not self.open_requests:
            return 0, proposals
        if self._plan_dirty:
            self.refresh_plan(now)
        signature_for = self._signature_for
        live_for = self._live_candidates
        tier_for = self._tier_decision_for
        capacity_of = self._capacity_of
        demand_dirty = self._demand_dirty
        #: request_id -> demand remaining after this cohort's proposals.
        avail: Dict[int, int] = {}
        avail_get = avail.get
        #: Signatures proven demand-dead for the rest of this cohort.
        dead: set = set()
        for i, device_id in enumerate(device_ids):
            signature = signature_for(device_id)
            if signature in dead:
                continue
            live = live_for(signature)
            if not live:
                dead.add(signature)
                continue
            fallback = None
            fallback_job = -1
            fallback_rid = -1
            any_live = False
            for job_id, request in live:
                rid = request.request_id
                d = avail_get(rid)
                if d is None:
                    d = request.remaining_demand
                if d <= 0 or not request.is_open:
                    continue
                any_live = True
                if device_id in request.assigned_ids:
                    continue
                decision = tier_for(request)
                if decision is NO_TIER or decision.accepts(capacity_of(device_id)):
                    avail[rid] = d - 1
                    demand_dirty.add(job_id)
                    proposals.append((i, request))
                    if d == 1:
                        return i + 1, proposals
                    break
                if fallback is None:
                    fallback = request
                    fallback_job = job_id
                    fallback_rid = rid
            else:
                if fallback is not None:
                    d = avail_get(fallback_rid, fallback.remaining_demand) - 1
                    avail[fallback_rid] = d
                    demand_dirty.add(fallback_job)
                    proposals.append((i, fallback))
                    if d == 0:
                        return i + 1, proposals
                elif not any_live:
                    dead.add(signature)
        return len(device_ids), proposals


__all__ = ["VennScheduler"]
