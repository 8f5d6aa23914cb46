"""Crash safety for the simulation engine: checkpoints, crashes, chaos.

Three pillars (see ``docs/RESILIENCE.md``):

* **Checkpoint/restore** — :meth:`repro.sim.engine.Simulator.snapshot` /
  :meth:`~repro.sim.engine.Simulator.resume` plus
  ``SimulationConfig(checkpoint_interval=N)`` for periodic snapshots.
  The contract is *exact resume*: a run resumed from any checkpoint
  reproduces the uninterrupted run's decisions and metrics bit-identically
  on both engines.
* **Crash injection** — ``SimulationConfig(crash_at_event=N)`` raises
  :class:`SimulatedCrash` once N events are processed; a strict no-op when
  unset.
* **Chaos harness** — ``python -m repro.resilience.chaos`` kills runs at
  random events, resumes from the latest checkpoint and asserts hash
  identity against the uninterrupted twin (the CI ``chaos-smoke`` gate).

:mod:`.chaos` is intentionally not imported here: it pulls in the
experiment layer, which itself imports the engine — importing it eagerly
would cycle.
"""

from .record import (
    DecisionRecord,
    RecordingPolicy,
    decision_hash,
    describe_metrics_divergence,
    first_divergence,
    format_divergence,
    metrics_digest,
)
from .snapshot import (
    LatestSnapshotStore,
    SimulatedCrash,
    SimulationSnapshot,
    SnapshotError,
)

__all__ = [
    "DecisionRecord",
    "LatestSnapshotStore",
    "RecordingPolicy",
    "SimulatedCrash",
    "SimulationSnapshot",
    "SnapshotError",
    "decision_hash",
    "describe_metrics_divergence",
    "first_divergence",
    "format_divergence",
    "metrics_digest",
]
