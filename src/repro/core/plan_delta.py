"""Incremental scheduling-plan maintenance (dirty sets + in-place deltas).

The paper recomputes the :class:`~repro.core.irs.SchedulingPlan` on every
job/request arrival and completion.  A from-scratch ``build_plan`` run
re-freezes every atom-rate key, re-derives every group's eligible-atom set,
re-sorts every group's job queue, re-runs allocation for all groups and
throws away the lazily built :class:`~repro.core.atom_index.AtomIndex` —
``O(m log m)`` + ``O(n^2)`` + index-rebuild work for triggers that almost
always touch a *single* job in a *single* group.  At 100k devices the
committed scalability baseline records thousands of such rebuilds per
simulated day, and they dominate the event loop once check-ins are O(1).

This module makes the plan pay only for what changed:

* :class:`PlanDelta` — the dirty-set layer.  Every scheduler lifecycle
  hook (request arrival and completion, job arrival and departure) records
  which job groups it touched, or that only a full rebuild is safe,
  instead of a single boolean dirty flag.
* :class:`PlanMaintainer` — consumes the accumulated delta at the next
  ``assign`` and mutates the existing plan in place:

  - per-job ordering inputs (remaining demand, fairness-adjusted demand,
    open-request flag) are re-derived only for jobs the scheduler marked
    *demand-dirty* — every demand change flows through a lifecycle trigger
    or an ``assign`` return, so the refresh is O(changed jobs) — and only
    groups whose ordering inputs actually changed are re-sorted (§4.2.1 is
    ``O(m_g log m_g)`` per dirty group, not global);
  - per-group eligible-atom sets are cached and refreshed only when the
    supply estimator's observed-signature set or the atom space grew
    (tracked by cheap version counters, not set comparisons);
  - phases 2+3 of Algorithm 1 re-run through *exactly* the code
    ``build_plan`` uses (:func:`~repro.core.irs._phase23_allocate`), so the
    refreshed allocation is bit-identical to a from-scratch rebuild — and
    they are skipped entirely when no group state changed and no atom's
    supply estimate moved;
  - the live :class:`~repro.core.atom_index.AtomIndex` is patched in
    place (:meth:`AtomIndex.patch`) for just the signatures whose
    candidate tuples changed, instead of dying with the plan.

Full ``build_plan`` remains the **oracle**: requirement-set changes (a job
arriving with a new requirement, the last job of a requirement leaving) and
active fairness (ε > 0 makes every job's adjusted demand a function of
*now*, so nothing is clean) fall back to it, and the scheduler's
``plan_maintenance="full"`` knob forces it for every trigger.  The
incremental plan is *equal* to the oracle's at every decision point —
pinned by property-based tests driving random trigger sequences through
both modes (``tests/core/test_plan_delta.py``) and by the golden fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .irs import (
    GroupAllocation,
    SchedulingPlan,
    _atom_preferences,
    _normalized_rates,
    _phase23_allocate,
    _rate_sum,
)
from .job_group import GroupJobEntry, JobGroup, JobGroupRegistry
from .requirements import (
    AtomSignature,
    AtomSpace,
    EligibilityRequirement,
    atom_sort_key,
    sorted_atoms,
)

#: Valid values of the scheduler's ``plan_maintenance`` knob.
PLAN_MAINTENANCE_MODES: Tuple[str, ...] = ("incremental", "full")


@dataclass
class PlanDelta:
    """Accumulated dirty state between plan refreshes."""

    #: The atom space / group set changed — only a full rebuild is safe.
    needs_full: bool = False
    #: Group keys whose queue composition or ordering inputs were touched
    #: by a trigger since the last refresh.
    dirty_groups: Set[str] = field(default_factory=set)
    #: Jobs that departed (their entries must leave their group).
    removed_jobs: Dict[int, str] = field(default_factory=dict)

    def mark_full(self) -> None:
        self.needs_full = True

    def mark_group(self, key: str) -> None:
        self.dirty_groups.add(key)

    def mark_removed(self, job_id: int, key: str) -> None:
        self.removed_jobs[job_id] = key
        self.dirty_groups.add(key)

    def clear(self) -> None:
        self.needs_full = False
        self.dirty_groups.clear()
        self.removed_jobs.clear()


#: One job's refreshed ordering inputs:
#: ``(job_id, requirement, remaining, adjusted, has_open_request)``.
JobState = Tuple[int, EligibilityRequirement, float, float, bool]


def _atoms_listing(
    prefs: Mapping[AtomSignature, List[str]], groups: Set[str]
) -> List[AtomSignature]:
    """Atoms whose preference list mentions any of ``groups``.

    These are exactly the atoms whose flattened candidate tuples go stale
    when those groups' job orders change — the single definition of
    "touched by a dirty group" shared by every allocation branch of
    :meth:`PlanMaintainer.apply`.
    """
    if not groups:
        return []
    return [
        atom
        for atom, pref in prefs.items()
        if any(key in groups for key in pref)
    ]


class PlanMaintainer:
    """Applies accumulated :class:`PlanDelta` state to a live plan.

    The maintainer adopts the scheduler's state after every full rebuild
    (:meth:`adopt`) and from then on serves triggers via :meth:`apply`,
    mutating the adopted plan and patching its index in place.  It owns the
    persistent group registry between rebuilds, so no per-trigger object
    churn happens for clean groups.
    """

    def __init__(self) -> None:
        self.delta = PlanDelta()
        self._plan: Optional[SchedulingPlan] = None
        self._groups: Dict[str, JobGroup] = {}
        self._job_group: Dict[int, str] = {}
        #: Per-group eligible atoms (frozen + canonically sorted).
        self._eligible: Dict[str, FrozenSet[AtomSignature]] = {}
        self._sorted_eligible: Dict[str, List[AtomSignature]] = {}
        #: All plan atoms (rates ∪ eligible sets) in canonical order.
        self._atoms_sorted: List[AtomSignature] = []
        #: Version stamps the cached eligible sets are valid for.
        self._supply_version: int = -1
        self._space_atom_count: int = -1
        #: Exact per-atom rates the last phase-2/3 run consumed: an
        #: allocation skip requires these to be unchanged (group *sums*
        #: matching is not enough — phases 2/3 also consume per-atom rates).
        self._last_rates: Dict[AtomSignature, float] = {}

    # ------------------------------------------------------------------ #
    # Adoption after a full rebuild
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> Optional[SchedulingPlan]:
        return self._plan

    def reset(self) -> None:
        """Drop adopted state (the next refresh must be a full rebuild)."""
        self._plan = None
        self._groups = {}
        self._job_group = {}
        self._eligible = {}
        self._sorted_eligible = {}
        self._atoms_sorted = []
        self._supply_version = -1
        self._space_atom_count = -1
        self._last_rates = {}
        self.delta.clear()

    def adopt(
        self,
        plan: SchedulingPlan,
        registry: JobGroupRegistry,
        space: AtomSpace,
        rates: Mapping[AtomSignature, float],
        supply_version: int,
    ) -> None:
        """Snapshot the state of a just-completed full rebuild.

        The registry's live :class:`~repro.core.job_group.JobGroup` objects
        are taken over (and mutated in place by later :meth:`apply` calls);
        eligible-atom sets are derived with the same formula ``build_plan``
        used, keyed to the supply/space versions current at build time.
        """
        self._plan = plan
        self._groups = {g.key: g for g in registry.groups()}
        self._job_group = {
            job_id: key
            for key, group in self._groups.items()
            for job_id in group.entries
        }
        self._refresh_eligible(space, rates)
        self._supply_version = supply_version
        self._space_atom_count = len(space.atoms)
        self._last_rates = dict(_normalized_rates(rates))
        self.delta.clear()

    def _refresh_eligible(
        self, space: AtomSpace, rates: Mapping[AtomSignature, float]
    ) -> None:
        """Re-derive per-group eligible atoms (build_plan's formula)."""
        self._eligible = {}
        self._sorted_eligible = {}
        union: Set[AtomSignature] = set(rates)
        for key in self._groups:
            atoms = set(space.eligible_atoms(key)) | {
                sig for sig in rates if key in sig
            }
            self._eligible[key] = frozenset(atoms)
            self._sorted_eligible[key] = sorted_atoms(atoms)
            union |= atoms
        self._atoms_sorted = sorted(union, key=atom_sort_key)

    # ------------------------------------------------------------------ #
    # Incremental application
    # ------------------------------------------------------------------ #
    def apply(
        self,
        job_states: Iterable[JobState],
        rates: Mapping[AtomSignature, float],
        space: AtomSpace,
        supply_version: int,
    ) -> int:
        """Serve the accumulated delta by updating the plan in place.

        Preconditions (enforced by the scheduler's ``refresh_plan``):
        a plan has been adopted, the requirement set is unchanged since the
        last full rebuild, adjusted demands are time-independent (fairness
        ε == 0), and ``job_states`` covers every job whose ordering inputs
        may have changed since the last refresh (the scheduler's
        demand-dirty set).  Returns the number of atom signatures the
        index patch re-flattened (0 when the plan has no index yet).
        """
        plan = self._plan
        if plan is None:
            raise RuntimeError("apply() before any full rebuild was adopted")
        rates = _normalized_rates(rates)
        delta = self.delta
        dirty: Set[str] = set(delta.dirty_groups)

        # ---- Departed jobs leave their group ---------------------------- #
        for job_id, key in delta.removed_jobs.items():
            mapped = self._job_group.pop(job_id, None)
            group = self._groups.get(mapped if mapped is not None else key)
            if group is not None:
                group.entries.pop(job_id, None)
            dirty.add(key)

        # ---- Refresh the dirty jobs' ordering inputs -------------------- #
        # ``job_states`` carries only jobs the scheduler marked demand-dirty
        # since the last refresh: every demand change flows through a
        # lifecycle trigger or through ``assign`` returning a request (the
        # engine then records the assignment), so unmarked jobs are
        # unchanged by construction and this loop is O(changed), not
        # O(all jobs).  Only groups whose inputs actually changed get
        # re-sorted below.
        for job_id, requirement, remaining, adjusted, has_open in job_states:
            key = requirement.name
            group = self._groups.get(key)
            if group is None:
                raise RuntimeError(
                    f"job {job_id} references group {key!r} unknown to the "
                    "maintainer; requirement changes must force a full rebuild"
                )
            entry = group.entries.get(job_id)
            if entry is None:
                group.entries[job_id] = GroupJobEntry(
                    job_id=job_id,
                    remaining_demand=float(remaining),
                    adjusted_demand=float(adjusted),
                    has_open_request=has_open,
                )
                self._job_group[job_id] = key
                dirty.add(key)
                continue
            if (
                entry.adjusted_demand != adjusted
                or entry.has_open_request != has_open
            ):
                dirty.add(key)
            entry.remaining_demand = float(remaining)
            entry.adjusted_demand = float(adjusted)
            entry.has_open_request = has_open

        # ---- Re-sort only the dirty groups (§4.2.1) --------------------- #
        for key in dirty:
            plan.job_order[key] = [
                e.job_id for e in self._groups[key].ordered_jobs()
            ]

        # ---- Refresh eligible atoms only when the atom universe grew ---- #
        atoms_changed = (
            supply_version != self._supply_version
            or len(space.atoms) != self._space_atom_count
        )
        if atoms_changed:
            self._refresh_eligible(space, rates)
            self._supply_version = supply_version
            self._space_atom_count = len(space.atoms)

        # ---- Allocation re-run, or keep when nothing it reads moved ----- #
        old_allocations = plan.allocations
        queue_changed = any(
            float(group.queue_length) != old_allocations[key].queue_length
            for key, group in self._groups.items()
        )
        group_order_changed = False
        if (
            not atoms_changed
            and not queue_changed
            and rates == self._last_rates
        ):
            # Everything Algorithm 1's allocation phases consume is
            # unchanged (every atom rate is what the last re-run saw): keep
            # the current group order, ownership and preference lists — the
            # kept allocation is the one the oracle would recompute, bit
            # for bit.  Dirty groups' job orders were still re-sorted above
            # and are patched below.
            prefs = plan.atom_preferences
            changed_atoms: List[AtomSignature] = _atoms_listing(prefs, dirty)
        else:
            allocations: Dict[str, GroupAllocation] = {
                key: GroupAllocation(
                    key=key,
                    supply_rate=_rate_sum(rates, self._sorted_eligible[key]),
                    queue_length=float(group.queue_length),
                )
                for key, group in self._groups.items()
            }
            group_order = _phase23_allocate(
                allocations, self._eligible, rates, reallocate=True
            )
            self._last_rates = dict(rates)

            # ---- Diff decision-relevant output ---------------------------- #
            group_order_changed = group_order != plan.group_order
            ownership_unchanged = (
                not atoms_changed
                and not group_order_changed
                and all(
                    allocations[key].allocated_atoms
                    == old_allocations[key].allocated_atoms
                    for key in allocations
                )
            )
            if ownership_unchanged:
                # Same owners over the same atom universe in the same
                # order: the preference lists are unchanged verbatim, so
                # skip their re-materialisation — only the dirty groups'
                # candidate tuples can be stale.
                prefs = plan.atom_preferences
                changed_atoms = _atoms_listing(prefs, dirty)
            else:
                prefs = _atom_preferences(
                    self._atoms_sorted, group_order, self._eligible, allocations
                )
                old_prefs = plan.atom_preferences
                stale = set(_atoms_listing(prefs, dirty))
                changed_atoms = [
                    atom
                    for atom, pref in prefs.items()
                    if atom in stale or pref != old_prefs.get(atom)
                ]
            plan.group_order = group_order
            plan.atom_preferences = prefs
            plan.allocations = allocations

        index = plan._index
        patched = 0
        if index is not None and (
            changed_atoms or dirty or group_order_changed
        ):
            patched = index.patch(
                plan,
                dirty_groups=dirty,
                changed_atoms=changed_atoms,
                group_order_changed=group_order_changed,
            )

        delta.clear()
        return patched


__all__ = [
    "PLAN_MAINTENANCE_MODES",
    "PlanDelta",
    "PlanMaintainer",
]
