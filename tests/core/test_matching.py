"""Unit and property tests for Algorithm 2 (tier-based device matching)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.matching as matching
from repro.core.matching import (
    NO_TIER,
    TierDecision,
    TierMatcher,
    device_capacity_metric,
    fit_tiers,
)
from repro.traces.capacity import CapacitySampler
from tests.conftest import make_device


def profile(speeds):
    """Capabilities and response times of participants whose response time
    tracks speed."""
    caps = [device_capacity_metric(make_device(speed=s)) for s in speeds]
    return caps, [10.0 * s for s in speeds]


def fit(speeds, num_tiers, rounds=((100.0, 50.0),)):
    caps, resp = profile(speeds)
    sched = [r[0] for r in rounds]
    collect = [r[1] for r in rounds]
    return fit_tiers(caps, resp, sched, collect, num_tiers)


def populate(matcher: TierMatcher, speeds, rounds=((100.0, 50.0),)) -> None:
    """Feed a matcher participants, then close its rounds."""
    for i, s in enumerate(speeds):
        device = make_device(device_id=i, speed=s)
        matcher.record_participation(
            device_capacity_metric(device), response_time=10.0 * s
        )
    for sched, resp in rounds:
        matcher.record_round(sched, resp)


class TestDeviceCapacityMetric:
    def test_faster_device_has_higher_metric(self):
        fast = make_device(speed=0.5)
        slow = make_device(speed=4.0)
        assert device_capacity_metric(fast) > device_capacity_metric(slow)

    @given(
        s1=st.floats(min_value=0.1, max_value=10.0),
        s2=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_metric_monotone_in_speed(self, s1, s2):
        d1 = make_device(device_id=1, speed=s1)
        d2 = make_device(device_id=2, speed=s2)
        if s1 < s2:
            assert device_capacity_metric(d1) > device_capacity_metric(d2)

    def test_fleet_column_is_the_per_profile_metric(self):
        """Given a fleet, the metric is a column whose every value is the
        row's profile metric, bit for bit."""
        fleet = CapacitySampler(seed=7).sample_devices(100_000)
        column = device_capacity_metric(fleet)
        assert column.shape == (len(fleet),)
        assert column.tolist() == [device_capacity_metric(d) for d in fleet]


class TestTierDecision:
    def test_no_tier_accepts_everything(self):
        assert NO_TIER.accepts(device_capacity_metric(make_device(speed=100.0)))

    def test_bounds_enforced(self):
        decision = TierDecision(use_tier=True, tier_index=1, low=0.5, high=1.5)
        assert decision.accepts(1.0)
        assert not decision.accepts(0.1)
        assert decision.accepts(device_capacity_metric(make_device(speed=1.0)))
        assert not decision.accepts(device_capacity_metric(make_device(speed=10.0)))


def fit_by_numpy(caps, resp, num_tiers):
    """Edges and speed-ups with one ``np.quantile`` / ``np.percentile`` call
    per quantity and a mask per tier — the formulas ``fit_tiers`` must
    reproduce bit for bit."""
    caps, resp = np.asarray(caps, dtype=float), np.asarray(resp, dtype=float)
    qs = np.linspace(0.0, 1.0, num_tiers + 1)[1:-1]
    edges = (-math.inf, *np.quantile(caps, qs).tolist(), math.inf)
    t0 = float(np.percentile(resp, 95.0))
    speedups = []
    for v in range(num_tiers):
        mask = (caps >= edges[v]) & (caps < edges[v + 1])
        if t0 <= 0 or not mask.any():
            speedups.append(1.0)
        else:
            speedups.append(float(np.percentile(resp[mask], 95.0)) / t0)
    return edges, tuple(speedups)


class TestFitTiers:
    @given(
        participants=st.lists(
            st.tuples(
                st.floats(0.0, 10.0) | st.sampled_from([0.5, 1.0, 2.0]),
                st.floats(0.0, 1e4) | st.sampled_from([0.0, 60.0]),
            ),
            min_size=4,
            max_size=300,
        ),
        tiers=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_quantiles_bit_for_bit(self, participants, tiers):
        """Ties, empty tiers, tiny tiers and a zero tail included."""
        caps = [c for c, _r in participants]
        resp = [r for _c, r in participants]
        result = fit_tiers(caps, resp, [1.0], [1.0], tiers)
        if len(participants) < tiers:
            assert result is None
        else:
            assert (result.edges, result.speedups) == fit_by_numpy(
                caps, resp, tiers
            )

    def test_no_fit_without_enough_profile(self):
        speeds = np.linspace(0.5, 5.0, 40)
        assert fit(speeds, 4, rounds=()) is None  # no completed round
        assert fit(speeds[:3], 2) is None  # fewer than 4 participants
        assert fit(speeds[:5], 6) is None  # fewer than V participants
        assert fit(speeds[:4], 4) is not None

    def test_edges_are_sorted_quantiles(self):
        speeds = np.linspace(0.5, 5.0, 40)
        result = fit(speeds, 4)
        assert len(result.edges) == 5 and len(result.speedups) == 4
        assert result.edges[0] == -math.inf and result.edges[-1] == math.inf
        assert list(result.edges) == sorted(result.edges)
        caps, _resp = profile(speeds)
        assert list(result.edges[1:-1]) == pytest.approx(
            np.quantile(caps, [0.25, 0.5, 0.75])
        )

    def test_single_tier_is_the_whole_axis(self):
        result = fit(np.linspace(0.5, 5.0, 20), 1)
        assert result.edges == (-math.inf, math.inf)
        assert result.speedups == (1.0,)

    def test_speedups_favor_fast_tier(self):
        result = fit(np.linspace(0.5, 5.0, 200), 4)
        speedups = result.speedups
        # Tier 3 contains the highest-capacity (fastest) devices, whose tail
        # response time is far below the global tail.
        assert speedups[3] < speedups[0]
        assert speedups[3] < 1.0
        assert all(s <= 1.0 + 1e-9 for s in speedups[3:])

    def test_edges_partition_the_metric_axis(self):
        speeds = np.linspace(0.5, 5.0, 60)
        edges = fit(speeds, 3).edges
        assert all(low < high for low, high in zip(edges, edges[1:]))
        caps, _resp = profile(speeds)
        for cap in caps:
            tiers = [v for v in range(3) if edges[v] <= cap < edges[v + 1]]
            assert len(tiers) == 1

    def test_empty_tier_and_zero_tail_get_factor_one(self):
        # Every participant has the same capability: the upper tiers are
        # empty; and a zero tail response time gives every tier 1.0.
        caps, resp = [1.0] * 10, [float(i) for i in range(10)]
        result = fit_tiers(caps, resp, [10.0], [5.0], 3)
        assert result.speedups[1:] == (1.0, 1.0)
        caps = [float(i) for i in range(10)]
        zero = fit_tiers(caps, [0.0] * 10, [10.0], [5.0], 3)
        assert zero.speedups == (1.0, 1.0, 1.0)

    def test_response_to_schedule_ratio(self):
        result = fit([1.0] * 10, 4, rounds=((100.0, 25.0), (300.0, 75.0)))
        assert result.ci == pytest.approx(0.25)

    def test_zero_scheduling_delay_gives_infinite_ratio(self):
        assert math.isinf(fit([1.0] * 10, 4, rounds=((0.0, 25.0),)).ci)

    def test_zero_delay_and_zero_collection_give_zero_ratio(self):
        assert fit([1.0] * 10, 4, rounds=((0.0, 0.0),)).ci == 0.0


class TestTierMatcher:
    def test_requires_valid_configuration(self):
        with pytest.raises(ValueError):
            TierMatcher(num_tiers=0)
        with pytest.raises(ValueError):
            TierMatcher(history=1)

    def test_a_single_tier_is_refused(self):
        """One tier could never restrict a request: the scheduler builds no
        matcher for it, and a matcher refuses it."""
        with pytest.raises(ValueError, match="num_tiers >= 2"):
            TierMatcher(num_tiers=1)

    def test_negative_inputs_rejected(self):
        matcher = TierMatcher()
        with pytest.raises(ValueError):
            matcher.record_participation(1.0, response_time=-1.0)
        with pytest.raises(ValueError):
            matcher.record_round(-1.0, 5.0)

    def test_no_decision_without_profile(self):
        matcher = TierMatcher(num_tiers=4, rng=np.random.default_rng(0))
        assert matcher.decide() == NO_TIER
        populate(matcher, speeds=np.linspace(0.5, 5.0, 50), rounds=())
        assert matcher.fit is None  # participants, but no round closed
        assert matcher.decide() == NO_TIER

    def test_tiers_are_fitted_once_per_round_close(self, monkeypatch):
        """``fit_tiers`` runs exactly once per ``record_round`` and never
        inside ``decide``; participants recorded between two closes enter
        the fit at the second."""
        calls = []

        def spy(*args):
            calls.append(len(args[0]))
            return fit_tiers(*args)

        monkeypatch.setattr(matching, "fit_tiers", spy)
        matcher = TierMatcher(num_tiers=2, rng=np.random.default_rng(3))
        populate(matcher, np.linspace(0.5, 5.0, 100), rounds=((1.0, 500.0),))
        assert calls == [100]
        fitted = matcher.fit
        for _ in range(20):
            matcher.decide()
        populate(matcher, [1.0] * 10, rounds=())
        assert calls == [100] and matcher.fit is fitted
        matcher.record_round(1.0, 500.0)
        assert calls == [100, 110]

    def test_decide_calls_no_numpy_besides_the_draw(self, monkeypatch):
        matcher = TierMatcher(num_tiers=2, rng=np.random.default_rng(3))
        populate(matcher, np.linspace(0.5, 5.0, 200), rounds=((1.0, 500.0),))

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"decide() called numpy.{name}")

        monkeypatch.setattr(matching, "np", NoNumpy())
        decisions = [matcher.decide() for _ in range(50)]
        assert any(d.use_tier for d in decisions)

    def test_restricts_when_response_time_dominates(self):
        """When c_i is huge (response time >> scheduling delay) and the tier
        speed-up is real, the JCT test V + g*c < c + 1 passes for fast tiers."""
        matcher = TierMatcher(num_tiers=2, rng=np.random.default_rng(3))
        populate(
            matcher,
            speeds=np.linspace(0.5, 5.0, 200),
            rounds=((1.0, 500.0),),  # c_i = 500
        )
        decisions = [matcher.decide() for _ in range(50)]
        assert any(d.use_tier for d in decisions)
        for d in decisions:
            if d.use_tier:
                assert 0 <= d.tier_index < 2
                assert d.low < d.high
                assert (d.low, d.high) == matcher.fit.edges[
                    d.tier_index : d.tier_index + 2
                ]

    def test_never_restricts_when_scheduling_delay_dominates(self):
        """When scheduling delay dominates (c_i small), tiering always loses."""
        matcher = TierMatcher(num_tiers=4, rng=np.random.default_rng(3))
        populate(
            matcher,
            speeds=np.linspace(0.5, 5.0, 200),
            rounds=((1000.0, 10.0),),  # c_i = 0.01
        )
        assert all(not matcher.decide().use_tier for _ in range(50))

    @given(
        ci=st.floats(min_value=0.01, max_value=1000.0),
        tiers=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_decision_consistent_with_jct_test(self, ci, tiers, seed):
        """Property: whenever a tier is chosen, the Algorithm-2 inequality
        V + g_u * c_i < c_i + 1 actually holds for the chosen tier."""
        matcher = TierMatcher(num_tiers=tiers, rng=np.random.default_rng(seed))
        populate(
            matcher,
            speeds=np.linspace(0.5, 5.0, 120),
            rounds=((100.0, 100.0 * ci),),
        )
        decision = matcher.decide()
        if decision.use_tier:
            g = matcher.fit.speedups[decision.tier_index]
            measured_ci = matcher.fit.ci
            assert tiers + g * measured_ci < measured_ci + 1.0
