"""Precomputed device-signature -> candidate-job index over a scheduling plan.

The paper's headline complexity claim — ``max(O(m log m), O(n^2))`` for
Algorithm 1 with O(1)-ish work per device check-in — rests on the check-in
path *consulting* the precomputed plan rather than re-deriving anything.
The seed implementation still flattened the plan's per-atom group preference
into a ``(group, job)`` candidate list on every call of
:meth:`SchedulingPlan.ordered_jobs_for`, i.e. O(#groups × #jobs) list
construction per check-in.

:class:`AtomIndex` materialises that flattening exactly once per plan:

* for every eligibility atom the plan knows about, the ordered tuple of
  ``(group_key, job_id)`` candidates is precomputed at index-build time;
* signatures the plan has never seen (devices with data domains the atom
  space could not anticipate) are resolved through the same fallback rule as
  the legacy scan — "every group whose requirement name is in the signature,
  scarcest first" — and then memoised, so each unknown signature pays the
  fallback cost once per plan instead of once per check-in.

An index is tied to the plan it was built from.  A *full* plan rebuild
replaces the plan object and the index dies with it — the invalidation
discipline the paper describes for the plan itself.  Under incremental plan
maintenance (:mod:`repro.core.plan_delta`) the plan is mutated in place
instead, and :meth:`AtomIndex.patch` re-flattens only the signatures whose
candidate tuples actually changed (dirty groups' job tuples, atoms whose
preference list moved), so a trigger that touches one group re-flattens a
handful of atoms instead of rebuilding the whole index.

The scheduler's live-candidate memo
(:meth:`repro.core.scheduler.VennScheduler._live_candidates`) is keyed on
``VennScheduler.plan_version`` alone.  That holds because :meth:`patch`
has one caller, :meth:`~repro.core.plan_delta.PlanMaintainer.apply`, whose
one caller, the incremental branch of ``VennScheduler.refresh_plan``,
bumps ``plan_version`` right after it: a new caller of :meth:`patch` that
does not bump ``plan_version`` would serve stale candidate lists to whole
signature cohorts.

A crucial guarantee the index preserves: every candidate group key it yields
for a signature is *contained in* that signature, so a device is eligible
for every candidate job by construction and the check-in path may skip the
per-job requirement re-check.  Property-based tests
(``tests/core/test_irs_properties.py``) assert both this containment and
decision-equality with the legacy linear scan on randomised plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from .requirements import AtomSignature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .irs import SchedulingPlan

#: A flattened candidate list: ``(group_key, job_id)`` in plan order.
CandidateList = Tuple[Tuple[str, int], ...]


class AtomIndex:
    """Signature -> ordered candidate-job index for one scheduling plan.

    Immutable from the check-in path's point of view; mutated only through
    :meth:`patch` by the incremental plan-maintenance layer.
    """

    __slots__ = (
        "_known",
        "_fallback_cache",
        "_group_jobs",
        "_group_order",
    )

    def __init__(self, plan: "SchedulingPlan") -> None:
        #: Per-group candidate tuples, flattened once.
        self._group_jobs: Dict[str, CandidateList] = {
            key: tuple((key, job_id) for job_id in jobs)
            for key, jobs in plan.job_order.items()
        }
        self._group_order: Tuple[str, ...] = tuple(plan.group_order)
        #: Precomputed candidates for every atom the plan anticipated.
        self._known: Dict[AtomSignature, CandidateList] = {
            atom: self._flatten(pref)
            for atom, pref in plan.atom_preferences.items()
        }
        #: Memo for signatures outside the anticipated atom space.
        self._fallback_cache: Dict[AtomSignature, CandidateList] = {}

    def _flatten(self, group_keys: List[str]) -> CandidateList:
        out: List[Tuple[str, int]] = []
        for key in group_keys:
            out.extend(self._group_jobs.get(key, ()))
        return tuple(out)

    def candidates(self, signature: AtomSignature) -> CandidateList:
        """Ordered ``(group_key, job_id)`` candidates for ``signature``.

        O(1) for known atoms; unknown signatures are resolved with the legacy
        fallback rule and memoised for the lifetime of the plan.
        """
        sig = frozenset(signature)
        hit = self._known.get(sig)
        if hit is not None:
            return hit
        hit = self._fallback_cache.get(sig)
        if hit is None:
            hit = self._flatten([k for k in self._group_order if k in sig])
            self._fallback_cache[sig] = hit
        return hit

    def patch(
        self,
        plan: "SchedulingPlan",
        dirty_groups: Iterable[str],
        changed_atoms: Iterable[AtomSignature],
        group_order_changed: bool,
    ) -> int:
        """Bring the index up to date with an in-place plan mutation.

        ``dirty_groups`` are the groups whose ``plan.job_order`` entry
        changed (their per-group candidate tuples are re-flattened);
        ``changed_atoms`` are the signatures whose candidate tuples are
        stale — either because their preference list changed or because the
        list contains a dirty group.  The memoised fallback resolutions are
        dropped when their inputs (group order / any group's job tuple)
        changed; precomputed entries for unaffected atoms are untouched.
        Returns the number of atom signatures re-flattened.
        """
        dirty = tuple(dirty_groups)
        for key in dirty:
            self._group_jobs[key] = tuple(
                (key, job_id) for job_id in plan.job_order.get(key, ())
            )
        if group_order_changed:
            self._group_order = tuple(plan.group_order)
        patched = 0
        for atom in changed_atoms:
            pref = plan.atom_preferences.get(atom)
            if pref is None:
                # Atoms never leave the plan under incremental maintenance;
                # tolerate it anyway so a patch can only shrink knowledge,
                # never serve stale candidates.
                self._known.pop(atom, None)
            else:
                self._known[atom] = self._flatten(pref)
            patched += 1
        if (dirty or group_order_changed) and self._fallback_cache:
            self._fallback_cache.clear()
        return patched


__all__ = ["AtomIndex", "CandidateList"]
