"""Intersection Resource Scheduling (IRS) — Algorithm 1 of the paper.

Given

* the set of *resource-homogeneous job groups* (jobs bucketed by eligibility
  requirement, :mod:`repro.core.job_group`),
* the eligibility-atom space relating those requirements
  (:mod:`repro.core.requirements`), and
* the estimated device-arrival rate of every atom
  (:mod:`repro.core.supply`),

this module produces a :class:`SchedulingPlan`: a fixed job scheduling order
plus an assignment of eligibility atoms to job groups (the ``S'_j`` sets of
Algorithm 1).  At device check-in time the plan is consulted to find the
first job in the order that may use the device — no per-device optimisation
is needed, which is what gives Venn its ``max(O(m log m), O(n^2))``
complexity.

The three phases of Algorithm 1 map to the three private helpers:

1. *intra-group ordering* — jobs inside a group sorted by ascending
   (fairness-adjusted) remaining demand (§4.2.1);
2. *initial allocation* — groups sorted by ascending eligible supply take
   exclusive ownership of their eligible atoms, scarcest group first
   (lines 5-9);
3. *reallocation of intersected resources* — resource-rich groups may claim
   atoms they share with scarcer groups when their (queue length / allocated
   supply) ratio is higher **and** the move lowers the summed
   queue-length/supply ratio of the two groups involved, i.e. when doing so
   lowers the average scheduling delay (lines 10-23, justified in
   Appendix D).  Atoms only ever move from the donor to the claimant, so the
   atom-to-group assignment remains a partition throughout.

Check-in fast path
------------------

At device check-in time the plan is consulted through its
:class:`~repro.core.atom_index.AtomIndex` (:meth:`SchedulingPlan.index`):
the index maps a device's :data:`~repro.core.requirements.AtomSignature`
straight to the precomputed, ordered tuple of ``(group, job)`` candidates,
so a check-in costs a dictionary lookup plus a walk over candidates instead
of re-flattening group preference lists.  The index is built lazily once per
plan; a full rebuild replaces the plan (and with it the index), while the
incremental maintenance layer (:mod:`repro.core.plan_delta`) mutates the
plan in place and patches the live index.
:meth:`SchedulingPlan.ordered_jobs_for` retains the original linear
flattening and serves as the reference ("legacy scan") implementation the
equivalence tests compare the index against.

Incremental maintenance
-----------------------

The three phases are exposed as module-level helpers
(:func:`_phase23_allocate`, :func:`_atom_preferences`, :func:`_rate_sum`)
so that :class:`~repro.core.plan_delta.PlanMaintainer` re-runs *exactly*
the same float operations as a from-scratch :func:`build_plan` when it
refreshes the inter-group allocation — the property-based
incremental-vs-full equivalence tests rely on the two paths sharing this
code, not merely approximating each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .atom_index import AtomIndex
from .job_group import JobGroup
from .requirements import AtomSignature, AtomSpace, atom_sort_key, sorted_atoms

#: Guard for divisions by (near-)zero supply rates.
_EPS = 1e-12


def _rate_sum(
    rates: Mapping[AtomSignature, float], atoms_in_order: Sequence[AtomSignature]
) -> float:
    """Sum atom rates over ``atoms_in_order``.

    Float addition is not associative, so callers must pass atoms in the
    canonical :func:`~repro.core.requirements.atom_sort_key` order (summing
    in set/hash order would make supply rates — and through them scheduling
    decisions — depend on ``PYTHONHASHSEED``).
    """
    return sum(rates.get(a, 0.0) for a in atoms_in_order)


def _normalized_rates(
    atom_rates: Mapping[AtomSignature, float],
) -> Mapping[AtomSignature, float]:
    """Atom rates with frozenset keys and non-negative float values.

    The supply estimator already hands over a dict of frozenset keys and
    non-negative floats, so the common case is a pure pass-through — the
    seed implementation re-wrapped every key in ``frozenset(...)`` and
    re-built the whole mapping on *every* rebuild, pure per-rebuild waste.
    Non-conforming mappings (tests or external callers using other set
    types or negative/int rates) are normalised as before.
    """
    for sig, rate in atom_rates.items():
        if type(sig) is not frozenset or type(rate) is not float or rate < 0.0:
            return {
                frozenset(s): max(0.0, float(r)) for s, r in atom_rates.items()
            }
    return atom_rates


def _effective_rate(alloc: "GroupAllocation") -> float:
    """Denominator of a group's queue/supply ratio.

    A group whose exclusive allocation was reallocated away is still served
    from its full eligible supply as leftovers (it stays in every atom's
    preference list), so its ratio falls back to the eligible supply rate.
    """
    return (
        alloc.allocated_rate if alloc.allocated_rate > _EPS else alloc.supply_rate
    )


@dataclass
class GroupAllocation:
    """Per-group outcome of Algorithm 1."""

    #: Requirement name identifying the group.
    key: str
    #: Estimated total eligible supply rate ``|S_j|`` (devices / second).
    supply_rate: float
    #: Atoms allocated to the group (``S'_j``).
    allocated_atoms: Set[AtomSignature] = field(default_factory=set)
    #: Supply rate of the allocated atoms (``|S'_j|``).
    allocated_rate: float = 0.0
    #: (Fairness-adjusted) queue length ``m'_j`` used in the ratio test.
    queue_length: float = 0.0


@dataclass
class SchedulingPlan:
    """The output of Algorithm 1, consumed at every device check-in.

    Attributes
    ----------
    group_order:
        Group keys sorted scarcest-supply first.  Used as the global
        tie-break when a device is eligible for several groups beyond the
        atom owner.
    job_order:
        Per-group ordered job ids (ascending adjusted demand).
    atom_preferences:
        For every known atom, the ordered list of group keys that devices of
        this atom should be offered to (owner group first, then the remaining
        eligible groups scarcest first).
    allocations:
        Per-group :class:`GroupAllocation` diagnostics.
    """

    group_order: List[str] = field(default_factory=list)
    job_order: Dict[str, List[int]] = field(default_factory=dict)
    atom_preferences: Dict[AtomSignature, List[str]] = field(default_factory=dict)
    allocations: Dict[str, GroupAllocation] = field(default_factory=dict)
    #: Lazily-built check-in index (see :meth:`index`); never compared.
    _index: Optional[AtomIndex] = field(
        default=None, repr=False, compare=False
    )

    def index(self) -> AtomIndex:
        """The signature -> candidate-job index for this plan.

        Built lazily on first use and cached; a full rebuild produces a
        fresh plan object, so the cache is invalidated together with the
        plan.  The only sanctioned mutation of an indexed plan is the
        incremental maintenance layer (:mod:`repro.core.plan_delta`), which
        patches the cached index in lock-step with the plan.
        """
        if self._index is None:
            self._index = AtomIndex(self)
        return self._index

    def preference_for(self, signature: AtomSignature) -> List[str]:
        """Ordered group keys a device with ``signature`` should be offered to.

        Unknown signatures (never anticipated by the atom space) fall back to
        "every group whose requirement name is in the signature, scarcest
        first", which is always safe because a signature literally lists the
        requirements the device satisfies.
        """
        sig = frozenset(signature)
        pref = self.atom_preferences.get(sig)
        if pref is not None:
            return pref
        return [key for key in self.group_order if key in sig]

    def ordered_jobs_for(self, signature: AtomSignature) -> List[Tuple[str, int]]:
        """Flattened (group, job) preference list for a device signature."""
        out: List[Tuple[str, int]] = []
        for key in self.preference_for(signature):
            for job_id in self.job_order.get(key, ()):  # pragma: no branch
                out.append((key, job_id))
        return out


def build_plan(
    groups: Sequence[JobGroup],
    atom_space: AtomSpace,
    atom_rates: Mapping[AtomSignature, float],
    queue_lengths: Optional[Mapping[str, float]] = None,
    reallocate: bool = True,
) -> SchedulingPlan:
    """Run Algorithm 1 and return the resulting :class:`SchedulingPlan`.

    Parameters
    ----------
    groups:
        The resource-homogeneous job groups with their waiting jobs.
    atom_space:
        Atom space covering (at least) the requirements of ``groups``.
    atom_rates:
        Estimated arrival rate per atom signature, from the supply
        estimator.  Atoms missing from the mapping are treated as rate 0 but
        still allocated (a device of that kind may well check in later).
    queue_lengths:
        Optional fairness-adjusted queue length per group key; defaults to
        the raw number of waiting jobs in each group.
    reallocate:
        Whether to run the inter-group reallocation phase (lines 10-23).
        Disabling it keeps the initial, exclusive scarcest-first allocation
        and is exposed for the design-choice ablation.
    """
    plan = SchedulingPlan()
    if not groups:
        return plan

    rates = _normalized_rates(atom_rates)

    # ---- Phase 1: intra-group ordering (§4.2.1) ----------------------- #
    allocations: Dict[str, GroupAllocation] = {}
    eligible_atoms: Dict[str, FrozenSet[AtomSignature]] = {}
    for group in groups:
        key = group.key
        atoms = set(atom_space.eligible_atoms(key)) | {
            sig for sig in rates if key in sig
        }
        eligible_atoms[key] = frozenset(atoms)
        supply = _rate_sum(rates, sorted_atoms(atoms))
        qlen = (
            float(queue_lengths[key])
            if queue_lengths is not None and key in queue_lengths
            else float(group.queue_length)
        )
        allocations[key] = GroupAllocation(
            key=key, supply_rate=supply, queue_length=qlen
        )
        plan.job_order[key] = [e.job_id for e in group.ordered_jobs()]

    # ---- Phases 2+3: allocation + reallocation ------------------------- #
    plan.group_order = _phase23_allocate(
        allocations, eligible_atoms, rates, reallocate
    )
    plan.allocations = allocations

    # ---- Materialise per-atom preference lists ------------------------- #
    all_atoms: Set[AtomSignature] = set(rates) | set().union(
        *eligible_atoms.values()
    )
    # Canonical order keeps ``atom_preferences`` insertion (and hence any
    # iteration over it) independent of hash order.
    plan.atom_preferences = _atom_preferences(
        sorted(all_atoms, key=atom_sort_key),
        plan.group_order,
        eligible_atoms,
        allocations,
    )

    return plan


def _phase23_allocate(
    allocations: Dict[str, GroupAllocation],
    eligible_atoms: Mapping[str, FrozenSet[AtomSignature]],
    rates: Mapping[AtomSignature, float],
    reallocate: bool,
) -> List[str]:
    """Phases 2 and 3 of Algorithm 1 over fresh ``allocations``.

    Mutates each group's ``allocated_atoms`` / ``allocated_rate`` in place
    (``supply_rate`` and ``queue_length`` must already be set) and returns
    the scarcest-supply-first group order.  Shared verbatim between
    :func:`build_plan` and the incremental maintenance layer so both paths
    perform bit-identical float operations.
    """
    # Scarcest-supply-first global order (ties broken by name for
    # determinism).
    group_order = sorted(
        allocations, key=lambda k: (allocations[k].supply_rate, k)
    )

    # ---- Phase 2: initial allocation (lines 5-9) ----------------------- #
    unclaimed: Set[AtomSignature] = set()
    for atoms in eligible_atoms.values():
        unclaimed |= set(atoms)
    for key in group_order:  # ascending supply == scarcest first
        claim = unclaimed & eligible_atoms[key]
        alloc = allocations[key]
        alloc.allocated_atoms = set(claim)
        alloc.allocated_rate = _rate_sum(rates, sorted_atoms(claim))
        unclaimed -= claim

    # ---- Phase 3: reallocation of intersected resources (lines 10-23) -- #
    descending = sorted(
        allocations, key=lambda k: (-allocations[k].supply_rate, k)
    )
    if not reallocate:
        descending = []
    for j_key in descending:
        alloc_j = allocations[j_key]
        if not alloc_j.allocated_atoms:
            # Line 12: only groups that still own some resources get to pull
            # intersected resources from scarcer groups.
            continue
        # Candidate donor groups: scarcer supply and overlapping eligibility,
        # visited from the most abundant of the scarcer groups downwards.
        donors = [
            k_key
            for k_key in descending
            if allocations[k_key].supply_rate < alloc_j.supply_rate
            and (eligible_atoms[k_key] & eligible_atoms[j_key])
        ]
        for k_key in donors:
            alloc_k = allocations[k_key]
            ratio_j = alloc_j.queue_length / max(_effective_rate(alloc_j), _EPS)
            ratio_k = alloc_k.queue_length / max(_effective_rate(alloc_k), _EPS)
            if ratio_j > ratio_k:
                # The intersected resources S_j ∩ S'_k: only atoms the donor
                # actually owns may move, so the allocation stays a partition.
                shared = eligible_atoms[j_key] & alloc_k.allocated_atoms
                if not shared:
                    continue
                shared_rate = _rate_sum(rates, sorted_atoms(shared))
                rate_j_after = alloc_j.allocated_rate + shared_rate
                rate_k_after = alloc_k.allocated_rate - shared_rate
                after_j = alloc_j.queue_length / max(
                    rate_j_after if rate_j_after > _EPS else alloc_j.supply_rate,
                    _EPS,
                )
                after_k = alloc_k.queue_length / max(
                    rate_k_after if rate_k_after > _EPS else alloc_k.supply_rate,
                    _EPS,
                )
                if after_j + after_k > ratio_j + ratio_k:
                    # Appendix D: commit the transfer only when it lowers the
                    # summed queue/supply ratio (i.e. the average scheduling
                    # delay) of the two groups involved.  Both sides of the
                    # comparison use the same effective-rate convention as
                    # :func:`_effective_rate`, so the global objective is
                    # monotonically non-increasing across transfers.
                    continue
                alloc_j.allocated_atoms |= shared
                alloc_k.allocated_atoms -= shared
                alloc_j.allocated_rate += shared_rate
                alloc_k.allocated_rate = max(0.0, rate_k_after)
            else:
                # Line 19: if this group still needs more resources it should
                # take them from more abundant groups first, so stop here.
                break

    return group_order


def _atom_preferences(
    atoms_in_order: Sequence[AtomSignature],
    group_order: Sequence[str],
    eligible_atoms: Mapping[str, FrozenSet[AtomSignature]],
    allocations: Mapping[str, GroupAllocation],
) -> Dict[AtomSignature, List[str]]:
    """Per-atom ordered group preference lists (owner first, then the rest).

    ``atoms_in_order`` must already be in canonical
    :func:`~repro.core.requirements.atom_sort_key` order so the resulting
    dict's insertion order is hash-independent.
    """
    prefs: Dict[AtomSignature, List[str]] = {}
    for atom in atoms_in_order:
        eligible_groups = [k for k in group_order if atom in eligible_atoms[k]]
        if not eligible_groups:
            continue
        owners = [
            k for k in eligible_groups if atom in allocations[k].allocated_atoms
        ]
        rest = [k for k in eligible_groups if k not in owners]
        prefs[atom] = owners + rest
    return prefs


__all__ = ["GroupAllocation", "SchedulingPlan", "build_plan"]
