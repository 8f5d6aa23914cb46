"""Dynamic resource-supply estimation (paper §4.4).

Venn tracks device check-ins per eligibility atom and queries the *average*
eligible-device arrival rate over a trailing window (24 hours by default).
Averaging over a full diurnal period makes the scheduler "far-sighted":
momentary dips or spikes in device availability do not flip the scheduling
order.

The estimator is an incremental *streaming* one: check-ins are accumulated
into coarse time buckets (a ring of ``num_buckets`` buckets spanning the
window) and a running per-atom count is maintained as buckets enter and
leave the window.  Recording a check-in is amortised O(1), querying a rate
is O(1), and the memory footprint is O(num_buckets) per atom — independent
of the number of devices or check-ins, which is what lets the estimator
keep up with million-device traces.  The only approximation versus an exact
sliding window is that events age out at bucket granularity
(``window / num_buckets``, 5-6 minutes for the default 24 h window).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .requirements import AtomSignature, sorted_atoms

#: Seconds in the default averaging window (24 hours, per the paper).
DEFAULT_WINDOW = 24 * 3600.0

#: Default number of time buckets the window is divided into.
DEFAULT_NUM_BUCKETS = 256


class SupplyEstimator:
    """Streaming sliding-window estimator of device arrival rates per atom.

    Parameters
    ----------
    window:
        Length of the trailing window, in seconds, over which arrival rates
        are averaged.  The paper uses 24 hours so that diurnal patterns are
        smoothed out.
    prior_rates:
        Optional mapping ``signature -> devices/second`` used before any
        check-ins have been observed (and blended with observations until the
        window has filled once).  Workload generators can seed this from the
        capacity distribution so that the very first scheduling decisions are
        already contention-aware.
    num_buckets:
        Number of time buckets the window is divided into.  More buckets
        track an exact sliding window more closely; fewer buckets use less
        memory.  Events leave the window at ``window / num_buckets``
        granularity.
    """

    def __init__(
        self,
        window: float = DEFAULT_WINDOW,
        prior_rates: Optional[Mapping[AtomSignature, float]] = None,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.window = float(window)
        self.num_buckets = int(num_buckets)
        self._bucket_width = self.window / self.num_buckets
        #: Per-atom ring of ``[bucket_index, count]`` pairs, oldest first.
        self._buckets: Dict[AtomSignature, Deque[List[int]]] = defaultdict(deque)
        #: Per-atom running count of check-ins inside the window.
        self._counts: Dict[AtomSignature, int] = defaultdict(int)
        self._prior: Dict[AtomSignature, float] = (
            {frozenset(k): float(v) for k, v in prior_rates.items()}
            if prior_rates
            else {}
        )
        self._first_event_time: Optional[float] = None
        self._last_event_time: Optional[float] = None
        self._total_checkins = 0
        #: Bumped whenever :meth:`observed_signatures` grows — consumers
        #: (the incremental plan-maintenance layer) cache per-group eligible
        #: atom sets against this version instead of re-deriving them on
        #: every plan refresh.
        self._signature_version = len(self._prior)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_checkin(self, signature: AtomSignature, now: float) -> None:
        """Record one device check-in with eligibility ``signature``.

        Amortised O(1): the check-in lands in the current time bucket, and
        buckets that aged out of the window are retired from the running
        count as a side effect.
        """
        sig = frozenset(signature)
        if self._last_event_time is not None and now < self._last_event_time:
            raise ValueError(
                f"check-ins must be recorded in time order "
                f"(got {now} after {self._last_event_time})"
            )
        bucket = int(now // self._bucket_width)
        ring = self._buckets.get(sig)
        if ring is None:
            ring = self._buckets[sig] = deque()
            if sig not in self._prior:
                # A signature never seen before: the observed set grew.
                self._signature_version += 1
        if ring and ring[-1][0] == bucket:
            ring[-1][1] += 1
        else:
            ring.append([bucket, 1])
        self._counts[sig] += 1
        if self._first_event_time is None:
            self._first_event_time = now
        self._last_event_time = now
        self._total_checkins += 1
        self._prune(sig, now)

    def record_checkins_batch(
        self,
        sig_ids: "np.ndarray",
        times: "np.ndarray",
        sig_table: Sequence[AtomSignature],
    ) -> None:
        """Record a time-ordered batch of check-ins as array operations.

        ``sig_ids[i]`` indexes ``sig_table`` to give event *i*'s signature;
        ``times`` must be non-decreasing and start no earlier than the last
        recorded event.  The resulting estimator state (rings, counts,
        versions, timestamps) is bit-identical to calling
        :meth:`record_checkin` once per event in order: bucket membership
        uses the same floor division, rings are per-signature so grouping by
        signature preserves each ring's append order, and pruning is a
        monotone left-trim — pruning once at each group's last timestamp
        retires exactly the buckets the per-event prunes would have.
        """
        n = len(times)
        if n == 0:
            return
        t0 = float(times[0])
        if self._last_event_time is not None and t0 < self._last_event_time:
            raise ValueError(
                f"check-ins must be recorded in time order "
                f"(got {t0} after {self._last_event_time})"
            )
        if n > 1 and bool(np.any(np.diff(times) < 0.0)):
            raise ValueError("batch timestamps must be non-decreasing")
        buckets = np.floor_divide(times, self._bucket_width).astype(np.int64)
        order = np.argsort(sig_ids, kind="stable")
        sorted_sids = np.asarray(sig_ids)[order]
        boundaries = np.nonzero(np.diff(sorted_sids))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        for s, e in zip(starts, ends):
            sig = frozenset(sig_table[int(sorted_sids[s])])
            idx = order[s:e]  # stable sort: ascending ⇒ original event order
            ring = self._buckets.get(sig)
            if ring is None:
                ring = self._buckets[sig] = deque()
                if sig not in self._prior:
                    self._signature_version += 1
            grp = buckets[idx]
            uniq, counts = np.unique(grp, return_counts=True)
            i = 0
            if ring and len(uniq) and ring[-1][0] == int(uniq[0]):
                ring[-1][1] += int(counts[0])
                i = 1
            for j in range(i, len(uniq)):
                ring.append([int(uniq[j]), int(counts[j])])
            self._counts[sig] += int(e - s)
            self._prune(sig, float(times[int(idx[-1])]))
        if self._first_event_time is None:
            self._first_event_time = t0
        self._last_event_time = float(times[-1])
        self._total_checkins += n

    def _prune(self, sig: AtomSignature, now: float) -> None:
        """Retire buckets that lie entirely before ``now - window``."""
        horizon = now - self.window
        ring = self._buckets.get(sig)
        if not ring:
            return
        width = self._bucket_width
        while ring and (ring[0][0] + 1) * width <= horizon:
            self._counts[sig] -= ring.popleft()[1]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def observed_signatures(self) -> Tuple[AtomSignature, ...]:
        """Signatures seen so far (plus any seeded priors), in canonical
        order — hash order would leak ``PYTHONHASHSEED`` into downstream
        float accumulation and break run-level reproducibility."""
        sigs = set(self._buckets) | set(self._prior)
        return tuple(sorted_atoms(sigs))

    def _effective_span(self, now: float) -> float:
        """Length of the observation span to divide counts by."""
        if self._first_event_time is None:
            return self.window
        span = min(self.window, max(now - self._first_event_time, 1.0))
        return span

    def rate(self, signature: AtomSignature, now: float) -> float:
        """Estimated arrival rate (devices/second) for one atom at ``now``.

        Before the window has filled once, the empirical rate is blended with
        the prior (if any) proportionally to how much of the window has been
        observed, so that cold-start estimates degrade gracefully.
        """
        sig = frozenset(signature)
        self._prune(sig, now)
        span = self._effective_span(now)
        empirical = self._counts.get(sig, 0) / span
        prior = self._prior.get(sig)
        if prior is None:
            return empirical
        fill = min(1.0, span / self.window) if self._total_checkins else 0.0
        return fill * empirical + (1.0 - fill) * prior

    def rates(self, now: float) -> Dict[AtomSignature, float]:
        """Arrival-rate estimate for every known atom, in one pass.

        Float-identical to calling :meth:`rate` per signature: the
        observation span (and hence the prior-blend fill factor) depends
        only on ``now`` — never on the signature — so it is computed once
        and reused, and per-signature pruning is exactly the per-call
        prune.  This is the supply read of every plan refresh (a completed
        round re-opens demand and the next refresh queries every atom), so
        it avoids re-deriving the span per atom.
        """
        span = self._effective_span(now)
        fill = (
            min(1.0, span / self.window) if self._total_checkins else 0.0
        )
        counts = self._counts
        prior = self._prior
        out: Dict[AtomSignature, float] = {}
        for sig in self.observed_signatures():
            self._prune(sig, now)
            empirical = counts.get(sig, 0) / span
            p = prior.get(sig)
            if p is None:
                out[sig] = empirical
            else:
                out[sig] = fill * empirical + (1.0 - fill) * p
        return out

    @property
    def signature_version(self) -> int:
        """Monotonic version of the observed-signature *set*.

        Unchanged version guarantees :meth:`observed_signatures` (and hence
        the key set of :meth:`rates`) is unchanged — rate *values* still
        drift with time and new check-ins.
        """
        return self._signature_version


__all__ = ["DEFAULT_NUM_BUCKETS", "DEFAULT_WINDOW", "SupplyEstimator"]
