"""Checkpoint container + convenience sinks for crash-safe simulation.

The engine's :meth:`~repro.sim.engine.Simulator.snapshot` captures the
*entire* simulation state by pickling the simulator object graph — event
queue heap and sequence counter, device runtimes / struct-of-arrays
vector state, the device stream's cursor and response heap, scheduling plan +
atom-index epoch, supply-estimator buckets, the RNG master key with every
per-device draw counter, and all in-flight resource requests.  The pickle
memo preserves the shared-reference structure (engine ↔ policy ↔ stream
state point at the same objects), which is what makes the restored graph
behave identically to the original.

This module holds the plain-data wrapper around that payload, a tiny sink
for periodic checkpointing and the two errors of the resume path: the
injected crash a run resumes from, and the snapshot that cannot be
resumed.  It is a leaf module (no package imports), so the engine can use
it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


#: Version of the pickled simulator graph, embedded in the payload itself
#: (so raw ``bytes`` carry it too) and in :class:`SimulationSnapshot`.  Bump
#: it in any change that alters what ``Simulator.snapshot`` pickles (a field
#: added to or removed from ``Simulator``, ``SimulationConfig``, the device
#: stream, the metrics or a policy), so a snapshot written before the
#: change is refused instead of resuming into a graph with missing or stale
#: attributes.
SNAPSHOT_FORMAT_VERSION = 8


class SnapshotError(ValueError):
    """A snapshot cannot be resumed: empty, truncated or undecodable
    payload, or one written under another ``SNAPSHOT_FORMAT_VERSION``."""


class SimulatedCrash(RuntimeError):
    """Raised at the event boundary named by
    ``SimulationConfig(crash_at_event=N)``: the coordinator process dies
    once ``N`` events have been processed.

    The simulation state is consistent when this propagates (the crash
    fires between fully processed events), so the run can be resumed from
    any earlier checkpoint — or, with no checkpoint, restarted from the
    beginning — and replayed bit-identically.
    """

    def __init__(self, events_processed: int, now: float) -> None:
        super().__init__(
            f"injected coordinator crash after {events_processed} events "
            f"(t={now:.1f}s)"
        )
        self.events_processed = events_processed
        self.now = now


@dataclass(frozen=True)
class SimulationSnapshot:
    """One full-state checkpoint of a :class:`~repro.sim.engine.Simulator`.

    ``payload`` is the pickled simulator; ``events_processed`` / ``now`` /
    ``started`` describe the capture point without deserialising (a
    pre-run snapshot has ``started=False`` — resuming it replays the whole
    run from scratch); ``format_version`` is the
    :data:`SNAPSHOT_FORMAT_VERSION` the payload was written under, checked
    by :meth:`~repro.sim.engine.Simulator.resume`.
    """

    payload: bytes
    events_processed: int
    now: float
    started: bool
    format_version: int = SNAPSHOT_FORMAT_VERSION

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


class LatestSnapshotStore:
    """Checkpoint sink keeping the most recent snapshot (plus a count).

    Pass as ``Simulator(..., checkpoint_sink=store)`` — or rely on the
    simulator's own ``last_snapshot`` attribute; the store exists for
    callers that outlive the simulator object (e.g. the chaos harness's
    crash-and-resume loop) or want the history length.
    """

    def __init__(self, keep_history: bool = False) -> None:
        self.latest: Optional[SimulationSnapshot] = None
        self.count = 0
        self.history: List[SimulationSnapshot] = []
        self._keep_history = keep_history

    def __call__(self, snapshot: SimulationSnapshot) -> None:
        self.latest = snapshot
        self.count += 1
        if self._keep_history:
            self.history.append(snapshot)


__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "LatestSnapshotStore",
    "SimulatedCrash",
    "SimulationSnapshot",
    "SnapshotError",
]
