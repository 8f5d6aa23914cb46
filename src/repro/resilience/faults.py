"""Declarative fault injection for the simulation engine.

The ROADMAP's live-coordinator ambitions need the engine to *model* the
failure modes a real deployment sees — the device stream dying mid-run,
the coordinator process crashing, the stream's response drain stalling —
and to recover from them along the paper's determinism contract.  This
module is the declarative surface:

* :class:`FaultSpec` — one fault (kind, firing point, duration);
* :class:`FaultPlan` — an immutable set of faults attached to a run via
  ``SimulationConfig(fault_plan=...)``;
* :class:`FaultInjector` — the engine-side interpreter, polled once per
  processed event batch at a safe boundary;
* :class:`SimulatedCrash` — raised when a ``coordinator_crash`` fault
  fires; the chaos harness (:mod:`repro.resilience.chaos`) catches it and
  resumes from the latest checkpoint.

Design constraints (mirroring PR 6's ``degrades_network`` gating):

* **no-op when absent** — a run without a fault plan executes exactly the
  historical code path: the engine polls nothing, the stream takes one
  extra comparison per scheduled response, and every decision/metrics hash
  is unchanged (the golden fixtures pin this);
* **deterministic when present** — faults fire at event-count boundaries,
  not wall-clock times, so a faulted run is exactly reproducible (the
  fault tests replay plans and assert identical hashes);
* **leaf module** — no imports from the rest of the package, so the
  engine can import it without cycles and snapshots embedding an injector
  stay picklable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Fault kinds.
COORDINATOR_CRASH = "coordinator_crash"
KILL_SHARD = "kill_shard"
STALL_SHARD = "stall_shard"

FAULT_KINDS = frozenset({COORDINATOR_CRASH, KILL_SHARD, STALL_SHARD})

#: Kinds that target the fleet engine's device stream (and therefore need
#: that engine).
SHARD_FAULT_KINDS = frozenset({KILL_SHARD, STALL_SHARD})


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
    it.  Stream-targeted kinds carry an outage ``duration`` in simulated
    seconds.
    """

    kind: str
    at_event: int
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.at_event < 0:
            raise ValueError("at_event must be non-negative")
        if self.kind in SHARD_FAULT_KINDS and self.duration <= 0:
            raise ValueError(f"{self.kind} needs a positive duration")


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
    def kill_shard(cls, at_event: int, duration: float) -> "FaultPlan":
        """The device stream dies for ``duration`` simulated seconds."""
        return cls((FaultSpec(KILL_SHARD, at_event, duration),))

    @classmethod
    def stall_shard(cls, at_event: int, duration: float) -> "FaultPlan":
        """The stream's response drain stalls for ``duration`` seconds."""
        return cls((FaultSpec(STALL_SHARD, at_event, duration),))

    @property
    def needs_sharded_engine(self) -> bool:
        return any(f.kind in SHARD_FAULT_KINDS for f in self.faults)


class FaultInjector:
    """Engine-side interpreter of a :class:`FaultPlan`.

    The engine polls :meth:`poll` once per processed event batch, at a
    boundary where no event is half-applied.  The injector fires every
    fault whose ``at_event`` has been reached, in ``(at_event,
    declaration-order)`` order.  All state is plain data, so an injector
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
        self.stats: Dict[str, int] = {
            "faults_fired": 0,
            "crashes": 0,
            "shards_killed": 0,
            "shards_stalled": 0,
        }

    def poll(self, sim) -> None:
        """Fire every due fault.

        Called by the engine between events.  May raise
        :class:`SimulatedCrash` (coordinator faults propagate out of
        ``Simulator.run``).
        """
        events = sim._events_processed
        while (
            self._cursor < len(self._pending)
            and self._pending[self._cursor].at_event <= events
        ):
            spec = self._pending[self._cursor]
            self._cursor += 1
            self._fire(sim, spec)

    @property
    def exhausted(self) -> bool:
        """All faults fired."""
        return self._cursor >= len(self._pending)

    def _fire(self, sim, spec: FaultSpec) -> None:
        self.stats["faults_fired"] += 1
        if spec.kind == COORDINATOR_CRASH:
            self.stats["crashes"] += 1
            raise SimulatedCrash(sim._events_processed, sim.now)
        if spec.kind == KILL_SHARD:
            self.stats["shards_killed"] += 1
            sim._shard.kill_until(sim.now + spec.duration)
        else:  # STALL_SHARD
            self.stats["shards_stalled"] += 1
            sim._shard.delay_responses_until(sim.now + spec.duration)


__all__ = [
    "COORDINATOR_CRASH",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KILL_SHARD",
    "SHARD_FAULT_KINDS",
    "STALL_SHARD",
    "SimulatedCrash",
]
