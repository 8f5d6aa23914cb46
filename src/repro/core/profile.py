"""Lightweight plan-maintenance instrumentation (counters + wall time).

The scalability work of this repo rests on two claims that are easy to
regress silently: device check-ins are O(1) (PR 1's ``AtomIndex``), and plan
maintenance pays only for what changed (the incremental delta layer of
:mod:`repro.core.plan_delta`).  This module provides the cheap, always-on
counters that make both claims *measurable* per run:

* how many triggers were served by a **full** ``build_plan`` versus an
  **incremental** in-place update (``rebuilds_avoided``);
* how each trigger was classified (request arrival / completion, job
  arrival / departure, supply drift, fairness fallback, ...);
* how large the in-place :class:`~repro.core.atom_index.AtomIndex` patches
  were (atoms re-flattened vs. whole-index rebuilds);
* wall time spent in each maintenance path, so benchmarks can report the
  *plan-maintenance time share* of a simulation instead of inferring it
  from rebuild counts.

The profile is a plain mutable dataclass owned by the scheduler
(``VennScheduler.plan_profile``); the engine snapshots it into
``SimulationMetrics.plan_maintenance`` at the end of a run, where
``python3 -m bench`` reads the ``core.plan_*`` layer metrics from.
Counters are incremented from the scheduler's maintenance paths only —
never per check-in — so the instrumentation itself stays off the hot path.

The class lives in ``repro.core`` (its producers are the scheduler and the
delta layer, and ``repro.sim`` already depends on ``repro.core`` — the
reverse import would invert the layering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PlanMaintenanceProfile:
    """Counters and per-phase wall time for scheduling-plan maintenance."""

    #: Full ``build_plan`` runs (atom space, registry and plan from scratch).
    full_rebuilds: int = 0
    #: In-place incremental plan updates (each one is a full rebuild avoided).
    incremental_updates: int = 0
    #: Incremental updates where no job/group state changed — only supply
    #: estimates drifted (the plan's decision surface was refreshed or kept).
    supply_only_refreshes: int = 0
    #: Phase-2/3 (allocation + reallocation) re-runs inside incremental
    #: updates.
    allocation_reruns: int = 0
    #: Phase-2/3 runs skipped because no group state changed and no atom's
    #: supply estimate moved.
    allocation_skips: int = 0
    #: Per-group intra-group job re-sorts performed by incremental updates.
    groups_resorted: int = 0
    #: In-place patch operations applied to a live ``AtomIndex``.
    index_patches: int = 0
    #: Total atom signatures re-flattened across all index patches.
    index_atoms_patched: int = 0
    #: Full ``AtomIndex`` constructions (lazy build after a full rebuild).
    index_rebuilds: int = 0
    #: Wall time spent inside full rebuilds / incremental updates (seconds).
    full_rebuild_time_s: float = 0.0
    incremental_time_s: float = 0.0
    #: Trigger classification counts (see ``repro.core.plan_delta.Trigger``).
    triggers: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_trigger(self, kind: str) -> None:
        self.triggers[kind] = self.triggers.get(kind, 0) + 1

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def rebuilds_avoided(self) -> int:
        """Triggers served without a from-scratch ``build_plan``."""
        return self.incremental_updates

    @property
    def maintenance_time_s(self) -> float:
        """Total wall time spent maintaining the plan, either path."""
        return self.full_rebuild_time_s + self.incremental_time_s

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by metrics and benchmark artifacts)."""
        return {
            "full_rebuilds": self.full_rebuilds,
            "incremental_updates": self.incremental_updates,
            "rebuilds_avoided": self.rebuilds_avoided,
            "supply_only_refreshes": self.supply_only_refreshes,
            "allocation_reruns": self.allocation_reruns,
            "allocation_skips": self.allocation_skips,
            "groups_resorted": self.groups_resorted,
            "index_patches": self.index_patches,
            "index_atoms_patched": self.index_atoms_patched,
            "index_rebuilds": self.index_rebuilds,
            "full_rebuild_time_s": round(self.full_rebuild_time_s, 6),
            "incremental_time_s": round(self.incremental_time_s, 6),
            "maintenance_time_s": round(self.maintenance_time_s, 6),
            "triggers": dict(sorted(self.triggers.items())),
        }


__all__ = ["PlanMaintenanceProfile"]
