"""Crash safety for the simulation engine: checkpoints, faults, chaos.

Three pillars (see ``docs/RESILIENCE.md``):

* **Checkpoint/restore** — :meth:`repro.sim.engine.Simulator.snapshot` /
  :meth:`~repro.sim.engine.Simulator.resume` plus
  ``SimulationConfig(checkpoint_interval=N)`` for periodic snapshots.
  The contract is *exact resume*: a run resumed from any checkpoint
  reproduces the uninterrupted run's decisions and metrics bit-identically
  on both engines.
* **Fault injection** — declarative :class:`FaultPlan` (coordinator crash,
  device-stream kill/stall) attached via
  ``SimulationConfig(fault_plan=...)``; a strict no-op when absent.
* **Chaos harness** — ``python -m repro.resilience.chaos`` kills runs at
  random events, resumes from the latest checkpoint and asserts hash
  identity against the uninterrupted twin (the CI ``chaos-smoke`` gate).

:mod:`.chaos` is intentionally not imported here: it pulls in the
experiment layer, which itself imports the engine — importing it eagerly
would cycle.
"""

from .faults import (
    COORDINATOR_CRASH,
    FAULT_KINDS,
    KILL_SHARD,
    SHARD_FAULT_KINDS,
    STALL_SHARD,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
)
from .record import (
    DecisionRecord,
    RecordingPolicy,
    decision_hash,
    describe_metrics_divergence,
    first_divergence,
    format_divergence,
    metrics_digest,
)
from .snapshot import LatestSnapshotStore, SimulationSnapshot, SnapshotError

__all__ = [
    "COORDINATOR_CRASH",
    "DecisionRecord",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KILL_SHARD",
    "LatestSnapshotStore",
    "RecordingPolicy",
    "SHARD_FAULT_KINDS",
    "STALL_SHARD",
    "SimulatedCrash",
    "SimulationSnapshot",
    "SnapshotError",
    "decision_hash",
    "describe_metrics_divergence",
    "first_divergence",
    "format_divergence",
    "metrics_digest",
]
