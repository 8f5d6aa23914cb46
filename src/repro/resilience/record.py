"""Decision recording, digests and first-divergence diagnostics.

The repo's identity gates (shard identity, vectorized identity, plan
maintenance, and now kill-and-resume) compare runs by a blake2b digest of
the assignment sequence.  A digest answers *whether* two runs diverged but
not *where*; and a wrapper that accumulates a ``hashlib`` object cannot be
pickled into a :meth:`~repro.sim.engine.Simulator.snapshot`.  This module
fixes both:

* :class:`RecordingPolicy` — a transparent, **picklable** policy wrapper
  that records every actual assignment as a plain
  ``(now, device_id, job_id)`` tuple.  Snapshot a simulator wrapping one
  and the resumed run's record list continues seamlessly, so the full
  decision sequence of a kill-and-resume run is directly comparable with
  its uninterrupted twin.
* :func:`decision_hash` / :func:`metrics_digest` — the canonical digests
  (shared by the tests, the chaos harness and ``python3 -m bench``).
* :func:`first_divergence` / :func:`format_divergence` /
  :func:`describe_metrics_divergence` — actionable gate output: the first
  divergent decision record (index, time, device, job, both values)
  instead of two opaque hex strings.

No imports from the rest of the package: like :mod:`.snapshot` this is a
leaf module the engine and benchmarks can both use without cycles.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Sequence, Tuple

#: One recorded assignment: (simulated time, device_id, job_id).
DecisionRecord = Tuple[float, int, int]


def decision_hash(decisions: Sequence[DecisionRecord]) -> str:
    """blake2b digest of an assignment sequence.

    Each record contributes ``struct.pack("<dqq", now, device_id,
    job_id)``, None decisions are never recorded.
    """
    fp = hashlib.blake2b(digest_size=16)
    pack = struct.pack
    for now, device_id, job_id in decisions:
        fp.update(pack("<dqq", now, device_id, job_id))
    return fp.hexdigest()


def metrics_digest(metrics) -> str:
    """Digest of merged run metrics (counters + per-job censored JCTs).

    Identity gates compare this *in addition to* the decision hash:
    identical decisions with a broken metrics reduction (e.g. a
    double-counted shard) would still be caught.
    """
    fp = hashlib.blake2b(digest_size=16)
    fp.update(
        struct.pack(
            "<qqqq",
            metrics.total_checkins,
            metrics.total_responses,
            metrics.total_failures,
            metrics.total_aborts,
        )
    )
    for job_id, jct in sorted(metrics.job_jcts().items()):
        fp.update(struct.pack("<qd", job_id, jct))
    return fp.hexdigest()


class RecordingPolicy:
    """Transparent policy wrapper recording every actual assignment.

    Unlike a running ``hashlib`` object, the record list is plain data:
    a simulator wrapping a :class:`RecordingPolicy` snapshots and resumes
    cleanly, and the records survive the round trip.  ``None`` decisions
    are not recorded (the digest stays comparable between dispatch paths
    that offer different — but decision-equivalent — device streams).

    Only the *decision* entry points need explicit wrappers (below):
    ``__getattr__`` delegation would resolve them on the inner policy
    directly and their proposals would never reach the decision record.
    Every other hook is forwarded untouched.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = getattr(inner, "name", type(inner).__name__)
        self.decisions: List[DecisionRecord] = []
        if getattr(inner, "assign_batch_bulk", None) is None:
            # Don't advertise the ledger path for policies without it —
            # the engine probes with getattr and must fall back cleanly.
            self.assign_batch_bulk = None

    def assign(self, device, now):
        out = self._inner.assign(device, now)
        if out is not None:
            self.decisions.append((now, device.device_id, out.job_id))
        return out

    def assign_batch_bulk(self, devices, now):
        consumed, proposals = self._inner.assign_batch_bulk(devices, now)
        decisions = self.decisions
        for i, request in proposals:
            decisions.append((now, devices[i].device_id, request.job_id))
        return consumed, proposals

    @property
    def decision_hash(self) -> str:
        return decision_hash(self.decisions)

    def __getattr__(self, item):
        # Guarded forwarding: during unpickling the instance dict is empty
        # and pickle probes for optional protocol methods; recursing into
        # getattr(self._inner, ...) before _inner exists would loop forever.
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(item)
        return getattr(inner, item)


def first_divergence(
    a: Sequence[DecisionRecord], b: Sequence[DecisionRecord]
) -> Optional[int]:
    """Index of the first differing record, or None if identical.

    A strict prefix diverges at ``min(len(a), len(b))`` (the shorter run
    simply stopped making decisions).
    """
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    if len(a) != len(b):
        return n
    return None


def _fmt_record(records: Sequence[DecisionRecord], index: int) -> str:
    if index < len(records):
        now, device_id, job_id = records[index]
        return f"(t={now:.3f}s device={device_id} job={job_id})"
    return f"<no record; run made only {len(records)} decisions>"


def format_divergence(
    a: Sequence[DecisionRecord],
    b: Sequence[DecisionRecord],
    label_a: str = "reference",
    label_b: str = "candidate",
) -> str:
    """Human-readable first-divergence report for a failed decision gate."""
    index = first_divergence(a, b)
    if index is None:
        return (
            f"decision sequences identical ({len(a)} records) — "
            "divergence must be in metrics or event counts"
        )
    return (
        f"first divergent decision at index {index} "
        f"(of {len(a)} {label_a} / {len(b)} {label_b} records): "
        f"{label_a}={_fmt_record(a, index)} "
        f"{label_b}={_fmt_record(b, index)}"
    )


def describe_metrics_divergence(
    a, b, label_a: str = "reference", label_b: str = "candidate"
) -> str:
    """First differing metrics field between two SimulationMetrics.

    Compares the exact fields :func:`metrics_digest` hashes — the four
    lifecycle counters, then per-job JCTs in job-id order.
    """
    for name in (
        "total_checkins",
        "total_responses",
        "total_failures",
        "total_aborts",
    ):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            return f"metrics diverge at {name}: {label_a}={va} {label_b}={vb}"
    jcts_a, jcts_b = a.job_jcts(), b.job_jcts()
    for job_id in sorted(set(jcts_a) | set(jcts_b)):
        va, vb = jcts_a.get(job_id), jcts_b.get(job_id)
        if va != vb:
            return (
                f"metrics diverge at job {job_id} JCT: "
                f"{label_a}={va} {label_b}={vb}"
            )
    return "metrics fields identical"


__all__ = [
    "DecisionRecord",
    "RecordingPolicy",
    "decision_hash",
    "describe_metrics_divergence",
    "first_divergence",
    "format_divergence",
    "metrics_digest",
]
