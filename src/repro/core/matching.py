"""Resource-aware tier-based device-to-job matching — Algorithm 2 (§4.3).

Response collection time is set by the *slowest* of a round's participants,
so handing a job a set of devices with similar (high) capability shortens the
round even if acquiring them takes slightly longer.  Venn therefore:

1. profiles, per job, the hardware capability and response time of past
   participants;
2. partitions the job's eligible devices into ``V`` capability tiers using
   quantile thresholds learnt from that profile;
3. estimates a speed-up factor ``g_v = t_v / t_0`` per tier (the ratio of the
   tier's 95th-percentile response time to the un-tiered 95th percentile);
4. for each served request picks a tier uniformly at random and restricts the
   job to that tier *only when doing so is predicted to lower its JCT*, i.e.
   when ``V + g_u * c_i < c_i + 1`` where ``c_i`` is the job's measured ratio
   of response-collection time to scheduling delay (Figure 7 of the paper).

Steps 2 and 3 and ``c_i`` are refitted once per round: each successful round
close calls :meth:`TierMatcher.record_round`, which runs :func:`fit_tiers`
over the job's sliding profile and keeps the result until the next close.
Participants that respond in between — those of an aborted attempt too —
enter the fit at that next close.  :meth:`TierMatcher.decide` only reads the
fit: one rng draw plus the line-7 test.

Devices outside the chosen tier are not wasted: they flow to the next job in
the group's order, which the Venn scheduler handles at assignment time.

The random tier pick draws from the :class:`numpy.random.Generator` injected
at construction — the Venn scheduler passes its own, which in turn is either
its explicit seed or the simulation engine's single run generator (via
``bind_rng``), so one seed reproduces a run bit-for-bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Percentile used as the statistical tail of the response-time distribution,
#: excluding failures and extreme stragglers (per §4.3).
TAIL_PERCENTILE = 95.0


def device_capacity_metric(devices):
    """Scalar capability score used to place a device into a tier.

    Faster devices (smaller ``speed_factor``) get a larger score; hardware
    scores break ties between devices with identical speed factors.  Any
    monotone-in-speed metric works; this one is cheap and deterministic.
    Given a :class:`~repro.core.types.DeviceFleet` it is the column of
    every row's score, each value bit-identical to the score of that row's
    :class:`~repro.core.types.DeviceProfile` (the operations are IEEE
    elementwise).
    """
    return 1.0 / devices.speed_factor + 1e-3 * (
        devices.cpu_score + devices.memory_score
    )


@dataclass(frozen=True)
class TierDecision:
    """Outcome of Algorithm 2 for one served request."""

    #: Whether tier-based matching is active for the request.
    use_tier: bool
    #: Index of the chosen tier (0 = slowest tier), when active.
    tier_index: Optional[int] = None
    #: Capability-metric bounds ``[low, high)`` of the chosen tier.
    low: float = -math.inf
    high: float = math.inf

    def accepts(self, capacity: float) -> bool:
        """True when a device of this :func:`device_capacity_metric` may
        serve the request under this decision."""
        if not self.use_tier:
            return True
        return self.low <= capacity < self.high


#: Decision used whenever tier-based matching is off (matching disabled, no
#: fit yet, or when the JCT test says it would not help).
NO_TIER = TierDecision(use_tier=False)


class TierFit(NamedTuple):
    """Algorithm 2's tiers for one job, as fitted at a round close."""

    #: ``V + 1`` ascending capability edges: tier ``v`` covers
    #: ``[edges[v], edges[v + 1])``, with open ends at ±inf.
    edges: Tuple[float, ...]
    #: Per-tier speed-up factors ``g_v = t_v / t_0`` (``<= 1`` is good).
    speedups: Tuple[float, ...]
    #: ``c_i = t_response / t_schedule`` averaged over recent rounds.
    ci: float


def _quantile(ascending: np.ndarray, q: float) -> float:
    """``np.quantile(x, q)`` read off ``ascending = np.sort(x)``: numpy's
    default ("linear") method, with the same float operations, so the value
    is bit-identical — without numpy's per-call set-up, which is most of a
    fit's cost when it runs once per quantile."""
    h = (len(ascending) - 1) * q
    lo = math.floor(h)
    if lo >= len(ascending) - 1:
        return float(ascending[-1])
    a, b = float(ascending[lo]), float(ascending[lo + 1])
    t = h - lo
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def fit_tiers(
    capacities: Sequence[float],
    response_times: Sequence[float],
    sched_delays: Sequence[float],
    collect_times: Sequence[float],
    num_tiers: int,
) -> Optional[TierFit]:
    """Fit Algorithm 2's ``V`` tiers to a job's profile.

    ``capacities`` and ``response_times`` pair up per participant;
    ``sched_delays`` and ``collect_times`` per completed round.  The edges
    are capability quantiles.  ``t_0`` is the 95th-percentile response time
    over all participants and ``t_v`` the one inside tier ``v``; an empty
    tier, or a zero ``t_0``, gets the factor 1.0.  A zero mean scheduling
    delay means devices were abundant, so ``c_i`` is infinite (0.0 when
    collection took no time either).  Returns ``None`` when there are fewer
    than ``max(4, V)`` participants or no completed round.
    """
    if len(capacities) < max(4, num_tiers) or not sched_delays:
        return None
    caps = np.fromiter(capacities, float, len(capacities))
    resp = np.fromiter(response_times, float, len(response_times))
    ascending = np.sort(caps)
    qs = np.linspace(0.0, 1.0, num_tiers + 1)[1:-1].tolist()
    cuts = [_quantile(ascending, q) for q in qs]
    tail = TAIL_PERCENTILE / 100.0
    t0 = _quantile(np.sort(resp), tail)
    speedups = [1.0] * num_tiers
    if t0 > 0:
        # A capability's tier is the number of cuts <= it, so tier v is
        # exactly [edges[v], edges[v + 1]).
        tier = np.searchsorted(cuts, caps, side="right")
        for v in range(num_tiers):
            members = resp[tier == v]
            if members.size:
                speedups[v] = _quantile(np.sort(members), tail) / t0
    sched = float(np.mean(sched_delays))
    collect = float(np.mean(collect_times))
    if sched <= 0:
        ci = math.inf if collect > 0 else 0.0
    else:
        ci = collect / sched
    return TierFit((-math.inf, *cuts, math.inf), tuple(speedups), ci)


class TierMatcher:
    """Algorithm 2 for one job: profile its participants, refit the tiers at
    each round close, and decide per served request whether to restrict the
    job to a randomly chosen tier.

    The Venn scheduler calls :meth:`decide` the first time it tries to place
    a device on a request and caches the returned :class:`TierDecision` for
    the request's lifetime.  It builds a matcher only when matching is on
    with at least two tiers: one tier could never restrict a request.
    """

    def __init__(
        self,
        num_tiers: int = 4,
        rng: Optional[np.random.Generator] = None,
        history: int = 2000,
    ) -> None:
        if num_tiers < 2:
            raise ValueError("a tier matcher needs num_tiers >= 2")
        if history < 10:
            raise ValueError("history must be >= 10 samples")
        self.num_tiers = int(num_tiers)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._capacities = deque(maxlen=history)
        self._response_times = deque(maxlen=history)
        self._sched_delays = deque(maxlen=64)
        self._collect_times = deque(maxlen=64)
        #: The tiers fitted at the last round close; ``None`` until the
        #: profile is large enough (the first request only profiles, §4.3).
        self.fit: Optional[TierFit] = None

    def record_participation(self, capacity: float, response_time: float) -> None:
        """Record one participant's :func:`device_capacity_metric` and
        response latency."""
        if response_time < 0:
            raise ValueError("response_time must be non-negative")
        self._capacities.append(float(capacity))
        self._response_times.append(float(response_time))

    def record_round(
        self, scheduling_delay: float, response_collection_time: float
    ) -> None:
        """Record a completed round's timing breakdown and refit the tiers."""
        if scheduling_delay < 0 or response_collection_time < 0:
            raise ValueError("round timings must be non-negative")
        self._sched_delays.append(float(scheduling_delay))
        self._collect_times.append(float(response_collection_time))
        self.fit = fit_tiers(
            self._capacities,
            self._response_times,
            self._sched_delays,
            self._collect_times,
            self.num_tiers,
        )

    def decide(self) -> TierDecision:
        """Pick a tier and run the JCT test of Algorithm 2 (line 7).

        Returns :data:`NO_TIER` when the job has no fit yet or when the
        predicted JCT with tiering is not smaller.
        """
        fit = self.fit
        if fit is None:
            return NO_TIER
        tier = int(self._rng.integers(0, self.num_tiers))
        gu = fit.speedups[tier]
        ci = fit.ci
        # JCT with tiering ~ V * t_schedule + g_u * t_response versus the
        # un-tiered t_schedule + t_response; dividing by t_schedule gives the
        # test of Algorithm 2 line 7.
        if math.isinf(ci):
            beneficial = gu < 1.0
        else:
            beneficial = self.num_tiers + gu * ci < ci + 1.0
        if not beneficial:
            return NO_TIER
        return TierDecision(
            use_tier=True,
            tier_index=tier,
            low=fit.edges[tier],
            high=fit.edges[tier + 1],
        )


__all__ = [
    "NO_TIER",
    "TAIL_PERCENTILE",
    "TierDecision",
    "TierFit",
    "TierMatcher",
    "device_capacity_metric",
    "fit_tiers",
]
