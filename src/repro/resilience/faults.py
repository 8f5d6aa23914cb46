"""Declarative fault injection for the simulation engine.

The ROADMAP's live-coordinator ambitions need the engine to *model* the
failure modes a real deployment sees — a device shard dying mid-run, the
coordinator process crashing, a plan broadcast that never reaches a shard,
a shard whose event drain stalls — and to recover from them along the
paper's determinism contract.  This module is the declarative surface:

* :class:`FaultSpec` — one fault (kind, firing point, target, duration);
* :class:`FaultPlan` — an immutable set of faults attached to a run via
  ``SimulationConfig(fault_plan=...)``;
* :class:`FaultInjector` — the engine-side interpreter, polled once per
  processed event batch at a safe boundary;
* :class:`SimulatedCrash` — raised when a ``coordinator_crash`` fault
  fires; the chaos harness (:mod:`repro.resilience.chaos`) catches it and
  resumes from the latest checkpoint.

Design constraints (mirroring PR 6's ``degrades_network`` gating):

* **no-op when absent** — a run without a fault plan executes exactly the
  historical code path: the engine polls nothing, shards take one extra
  comparison per scheduled response, and every decision/metrics hash is
  unchanged (the golden fixtures pin this);
* **deterministic when present** — faults fire at event-count boundaries,
  not wall-clock times, so a faulted run is exactly reproducible (the
  fault tests replay plans and assert identical hashes);
* **leaf module** — no imports from the rest of the package, so the
  engine can import it without cycles and snapshots embedding an injector
  stay picklable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Fault kinds.
COORDINATOR_CRASH = "coordinator_crash"
KILL_SHARD = "kill_shard"
STALL_SHARD = "stall_shard"
DROP_PLAN_BROADCAST = "drop_plan_broadcast"

FAULT_KINDS = frozenset(
    {COORDINATOR_CRASH, KILL_SHARD, STALL_SHARD, DROP_PLAN_BROADCAST}
)

#: Kinds that target one device shard (and therefore need the
#: coordinator/shard engine).
SHARD_FAULT_KINDS = frozenset({KILL_SHARD, STALL_SHARD, DROP_PLAN_BROADCAST})


class SimulatedCrash(RuntimeError):
    """Raised by a ``coordinator_crash`` fault at an event boundary.

    The simulation state is consistent when this propagates (the fault
    fires between fully processed events), so the run can be resumed from
    any earlier checkpoint — or, with no checkpoint, restarted from
    scratch — and replayed bit-identically.
    """

    def __init__(self, events_processed: int, now: float) -> None:
        super().__init__(
            f"injected coordinator crash after {events_processed} events "
            f"(t={now:.1f}s)"
        )
        self.events_processed = events_processed
        self.now = now


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    ``at_event`` counts *processed simulation events*: the fault fires at
    the first safe boundary where the engine's event counter has reached
    it.  Shard-targeted kinds carry the shard index and an outage
    ``duration`` in simulated seconds; ``drop_plan_broadcast`` instead
    uses ``backoff`` — the simulated delay until the coordinator notices
    and re-broadcasts the current plan version.
    """

    kind: str
    at_event: int
    shard: Optional[int] = None
    duration: float = 0.0
    backoff: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.at_event < 0:
            raise ValueError("at_event must be non-negative")
        if self.kind in SHARD_FAULT_KINDS:
            if self.shard is None or self.shard < 0:
                raise ValueError(f"{self.kind} needs a non-negative shard index")
        elif self.shard is not None:
            raise ValueError(f"{self.kind} does not target a shard")
        if self.kind in (KILL_SHARD, STALL_SHARD) and self.duration <= 0:
            raise ValueError(f"{self.kind} needs a positive duration")
        if self.kind == DROP_PLAN_BROADCAST and self.backoff <= 0:
            raise ValueError("drop_plan_broadcast needs a positive backoff")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of faults for one run.

    Attach with ``SimulationConfig(fault_plan=plan)``.  Constructors for
    the common single-fault plans are provided; compose several faults by
    passing the specs directly.
    """

    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {type(spec).__name__}")

    # ------------------------------------------------------------------ #
    # Single-fault constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def crash_at(cls, at_event: int) -> "FaultPlan":
        """Coordinator process dies after ``at_event`` processed events."""
        return cls((FaultSpec(COORDINATOR_CRASH, at_event),))

    @classmethod
    def kill_shard(
        cls, shard: int, at_event: int, duration: float
    ) -> "FaultPlan":
        """Shard ``shard`` dies for ``duration`` simulated seconds."""
        return cls((FaultSpec(KILL_SHARD, at_event, shard, duration),))

    @classmethod
    def stall_shard(
        cls, shard: int, at_event: int, duration: float
    ) -> "FaultPlan":
        """Shard ``shard``'s response drain stalls for ``duration`` seconds."""
        return cls((FaultSpec(STALL_SHARD, at_event, shard, duration),))

    @classmethod
    def drop_plan_broadcast(
        cls, shard: int, at_event: int, backoff: float = 60.0
    ) -> "FaultPlan":
        """The next plan broadcast to ``shard`` is lost; the coordinator
        re-broadcasts after ``backoff`` simulated seconds."""
        return cls(
            (FaultSpec(DROP_PLAN_BROADCAST, at_event, shard, backoff=backoff),)
        )

    @property
    def needs_sharded_engine(self) -> bool:
        return any(f.kind in SHARD_FAULT_KINDS for f in self.faults)

    @property
    def max_shard(self) -> int:
        """Largest shard index any fault targets (-1 if none)."""
        return max(
            (f.shard for f in self.faults if f.shard is not None), default=-1
        )


class FaultInjector:
    """Engine-side interpreter of a :class:`FaultPlan`.

    The engine polls :meth:`poll` once per processed event batch, at a
    boundary where no event is half-applied.  The injector fires every
    fault whose ``at_event`` has been reached, in ``(at_event,
    declaration-order)`` order, and delivers pending plan re-broadcasts
    whose backoff has elapsed.  All state is plain data, so an injector
    embedded in a :meth:`~repro.sim.engine.Simulator.snapshot` pickles
    cleanly; a resumed run replays faults that had not fired at checkpoint
    time (clear them with ``Simulator.resume(..., fault_plan=None)``).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # Stable sort: same-at_event faults keep declaration order.
        self._pending: List[FaultSpec] = sorted(
            plan.faults, key=lambda f: f.at_event
        )
        self._cursor = 0
        #: Scheduled plan re-broadcasts: ``(due_time, shard_index)``.
        self._rebroadcasts: List[Tuple[float, int]] = []
        self.stats: Dict[str, int] = {
            "faults_fired": 0,
            "crashes": 0,
            "shards_killed": 0,
            "shards_stalled": 0,
            "broadcasts_dropped": 0,
            "plan_rebroadcasts": 0,
        }

    def poll(self, sim) -> bool:
        """Fire every due fault; return True if any shard state changed.

        Called by the engine between events.  May raise
        :class:`SimulatedCrash` (coordinator faults propagate out of
        ``Simulator.run``).
        """
        fired = False
        if self._rebroadcasts:
            now = sim.now
            due = [r for r in self._rebroadcasts if r[0] <= now]
            if due:
                self._rebroadcasts = [
                    r for r in self._rebroadcasts if r[0] > now
                ]
                plan_version = getattr(sim.policy, "plan_version", None)
                for _, shard_index in due:
                    shard = sim._shards[shard_index]
                    if plan_version is not None:
                        shard.last_plan_version = plan_version
                    shard.plan_rebroadcasts += 1
                    self.stats["plan_rebroadcasts"] += 1
                fired = True
        events = sim._events_processed
        while (
            self._cursor < len(self._pending)
            and self._pending[self._cursor].at_event <= events
        ):
            spec = self._pending[self._cursor]
            self._cursor += 1
            self._fire(sim, spec)
            fired = True
        return fired

    @property
    def exhausted(self) -> bool:
        """All faults fired and no re-broadcast outstanding."""
        return self._cursor >= len(self._pending) and not self._rebroadcasts

    def _fire(self, sim, spec: FaultSpec) -> None:
        self.stats["faults_fired"] += 1
        if spec.kind == COORDINATOR_CRASH:
            self.stats["crashes"] += 1
            raise SimulatedCrash(sim._events_processed, sim.now)
        shard = sim._shards[spec.shard]
        if spec.kind == KILL_SHARD:
            self.stats["shards_killed"] += 1
            shard.kill_until(sim.now + spec.duration)
        elif spec.kind == STALL_SHARD:
            self.stats["shards_stalled"] += 1
            shard.delay_responses_until(sim.now + spec.duration)
        else:  # DROP_PLAN_BROADCAST
            self.stats["broadcasts_dropped"] += 1
            shard.broadcast_drop_pending += 1
            self._rebroadcasts.append((sim.now + spec.backoff, spec.shard))


__all__ = [
    "COORDINATOR_CRASH",
    "DROP_PLAN_BROADCAST",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KILL_SHARD",
    "SHARD_FAULT_KINDS",
    "STALL_SHARD",
    "SimulatedCrash",
]
