"""Unit and property tests for the supply estimator (§4.4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.supply import DEFAULT_WINDOW, SupplyEstimator

SIG_A = frozenset({"general"})
SIG_B = frozenset({"general", "high_performance"})


def count_in_window(est, signature, now):
    """Check-ins of ``signature`` the estimator still holds at ``now`` —
    the count :meth:`SupplyEstimator.rates` divides by the span."""
    est._prune(signature, now)
    return est._counts.get(signature, 0)


class TestSupplyEstimator:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            SupplyEstimator(window=0)

    def test_empty_estimator_rate_zero(self):
        est = SupplyEstimator()
        assert est.rate(SIG_A, now=100.0) == 0.0
        assert est._total_checkins == 0

    def test_basic_rate(self):
        est = SupplyEstimator(window=100.0)
        for t in range(10):
            est.record_checkin(SIG_A, float(t * 10))
        # 10 events over a 90-second observed span.
        rate = est.rate(SIG_A, now=90.0)
        assert rate == pytest.approx(10 / 90.0)

    def test_rate_per_signature_is_independent(self):
        est = SupplyEstimator(window=100.0)
        est.record_checkin(SIG_A, 0.0)
        est.record_checkin(SIG_B, 1.0)
        est.record_checkin(SIG_A, 2.0)
        assert count_in_window(est, SIG_A, 10.0) == 2
        assert count_in_window(est, SIG_B, 10.0) == 1

    def test_old_events_pruned(self):
        est = SupplyEstimator(window=50.0)
        est.record_checkin(SIG_A, 0.0)
        est.record_checkin(SIG_A, 10.0)
        est.record_checkin(SIG_A, 100.0)
        assert count_in_window(est, SIG_A, 100.0) == 1

    def test_out_of_order_rejected(self):
        est = SupplyEstimator()
        est.record_checkin(SIG_A, 50.0)
        with pytest.raises(ValueError):
            est.record_checkin(SIG_A, 10.0)

    def test_prior_rates_used_before_observations(self):
        est = SupplyEstimator(window=100.0, prior_rates={SIG_A: 0.5})
        assert est.rate(SIG_A, now=0.0) == pytest.approx(0.5)

    def test_prior_blended_out_as_window_fills(self):
        est = SupplyEstimator(window=100.0, prior_rates={SIG_A: 100.0})
        for t in range(0, 100, 2):
            est.record_checkin(SIG_A, float(t))
        # Window almost full: the empirical rate (~0.5/s) should dominate the
        # absurd prior of 100/s.
        assert est.rate(SIG_A, now=99.0) < 10.0

    def test_rates_returns_all_signatures(self):
        est = SupplyEstimator(prior_rates={SIG_B: 0.1})
        est.record_checkin(SIG_A, 5.0)
        rates = est.rates(now=10.0)
        assert SIG_A in rates and SIG_B in rates

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=200
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rate_is_nonnegative_and_bounded(self, times):
        """Property: the rate never goes negative and never exceeds the
        count of events divided by the minimum effective span (1 second)."""
        est = SupplyEstimator(window=DEFAULT_WINDOW)
        for t in sorted(times):
            est.record_checkin(SIG_A, t)
        now = max(times)
        rate = est.rate(SIG_A, now)
        assert rate >= 0.0
        assert rate <= len(times)

    @given(
        n_a=st.integers(min_value=0, max_value=50),
        n_b=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_more_checkins_means_higher_rate(self, n_a, n_b):
        """Property: within one window, more check-ins => a larger rate."""
        est = SupplyEstimator(window=1000.0)
        t = 0.0
        for i in range(n_a):
            est.record_checkin(SIG_A, t)
            t += 1.0
        for i in range(n_b):
            est.record_checkin(SIG_B, t)
            t += 1.0
        now = max(t, 1.0)
        rate_a, rate_b = est.rate(SIG_A, now), est.rate(SIG_B, now)
        if n_a > n_b:
            assert rate_a >= rate_b
        elif n_b > n_a:
            assert rate_b >= rate_a


class TestSignatureVersion:
    """The observed-signature version the incremental plan maintainer
    caches eligible-atom sets against."""

    def test_version_bumps_only_on_new_signatures(self):
        est = SupplyEstimator(window=1000.0)
        v0 = est.signature_version
        est.record_checkin(SIG_A, 1.0)
        assert est.signature_version == v0 + 1
        est.record_checkin(SIG_A, 2.0)
        est.record_checkin(SIG_A, 3.0)
        assert est.signature_version == v0 + 1  # repeat: set unchanged
        est.record_checkin(SIG_B, 4.0)
        assert est.signature_version == v0 + 2

    def test_prior_signatures_count_at_init(self):
        est = SupplyEstimator(window=1000.0, prior_rates={SIG_A: 0.5})
        v0 = est.signature_version
        # A check-in for a signature already known through the prior does
        # not grow the observed set.
        est.record_checkin(SIG_A, 1.0)
        assert est.signature_version == v0
        est.record_checkin(SIG_B, 2.0)
        assert est.signature_version == v0 + 1

    def test_unchanged_version_means_unchanged_rate_keys(self):
        est = SupplyEstimator(window=1000.0)
        est.record_checkin(SIG_A, 1.0)
        est.record_checkin(SIG_B, 2.0)
        version = est.signature_version
        keys = set(est.rates(10.0))
        est.record_checkin(SIG_A, 11.0)
        est.record_checkin(SIG_B, 12.0)
        assert est.signature_version == version
        assert set(est.rates(20.0)) == keys


class TestBucketAgingBoundary:
    """Differential tests of bucket aging against an exact sliding window.

    The estimator retires bucket ``b`` once ``(b + 1) * width <= now -
    window`` — the whole bucket lies strictly before the window start.  The
    consequences, pinned here as the estimator's documented contract:

    * no event still inside the closed window ``[now - window, now]`` is
      ever retired (the count never undershoots the exact window), and
    * events age out at most one bucket late (the count never overshoots
      the exact count by more than the events of one partially-expired
      bucket),

    including at exact ``k * bucket_width`` timestamps, where naive
    rounded-quotient day/bucket arithmetic is most likely to disagree with
    the fmod-based floor division both paths use.
    """

    WINDOW = 100.0
    BUCKETS = 10  # bucket_width = 10.0

    def _bounds(self, events, now, width):
        exact = sum(1 for t in events if t >= now - self.WINDOW)
        loose = sum(1 for t in events if t > now - self.WINDOW - width)
        return exact, loose

    def _check(self, events, queries):
        est = SupplyEstimator(window=self.WINDOW, num_buckets=self.BUCKETS)
        width = est.window / est.num_buckets
        events = sorted(events)
        cursor = 0
        for now in sorted(queries):
            while cursor < len(events) and events[cursor] <= now:
                est.record_checkin(SIG_A, events[cursor])
                cursor += 1
            got = count_in_window(est, SIG_A, now)
            exact, loose = self._bounds(events[:cursor], now, width)
            assert exact <= got <= loose, (
                f"count_in_window({now}) = {got} outside exact-window "
                f"bounds [{exact}, {loose}]"
            )

    def test_exact_multiple_of_bucket_width_boundaries(self):
        # Events and queries pinned to exact k * bucket_width timestamps:
        # an event at now - window (here 20.0 seen from 120.0) is exactly
        # on the window edge and must still be counted.
        events = [0.0, 10.0, 20.0, 30.0, 100.0]
        self._check(events, queries=[100.0, 110.0, 120.0, 130.0, 200.0])

    def test_event_on_window_edge_is_kept(self):
        est = SupplyEstimator(window=self.WINDOW, num_buckets=self.BUCKETS)
        est.record_checkin(SIG_A, 20.0)
        # now - window == 20.0 exactly: the event sits on the closed edge.
        assert count_in_window(est, SIG_A, 120.0) == 1
        # One bucket later the whole bucket [20, 30) has aged out.
        assert count_in_window(est, SIG_A, 130.0) == 0

    def test_float_boundary_just_below_multiple(self):
        # 29.999999999999996 is the largest float below 30.0: bucket 2,
        # not bucket 3 — the fmod-based floor must not round up.
        t = float.fromhex("0x1.dffffffffffffp+4")
        assert t < 30.0
        est = SupplyEstimator(window=self.WINDOW, num_buckets=self.BUCKETS)
        est.record_checkin(SIG_A, t)
        # Bucket [20, 30) retires once (2+1)*10 <= now - 100, i.e. at
        # now >= 130; at any query below that the event is still counted.
        assert count_in_window(est, SIG_A, 129.9999) == 1
        assert count_in_window(est, SIG_A, 130.0) == 0

    @given(
        events=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=500.0),
                # Exact bucket multiples, the aging boundary.
                st.integers(min_value=0, max_value=50).map(lambda k: k * 10.0),
            ),
            max_size=60,
        ),
        query_offsets=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=200.0),
                st.integers(min_value=0, max_value=20).map(lambda k: k * 10.0),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_differential_vs_exact_window(self, events, query_offsets):
        if not events:
            return
        top = max(events)
        self._check(events, queries=[top + off for off in query_offsets])


class TestBatchRecordEquivalence:
    """``record_checkins_batch`` must leave bit-identical estimator state."""

    def _state(self, est):
        return (
            {sig: list(map(tuple, ring)) for sig, ring in est._buckets.items()},
            dict(est._counts),
            est.signature_version,
            est._total_checkins,
            est._first_event_time,
            est._last_event_time,
        )

    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.floats(min_value=0.0, max_value=400.0),
            ),
            min_size=1,
            max_size=50,
        ),
        split=st.integers(min_value=1, max_value=49),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_scalar(self, data, split):
        import numpy as np

        table = [SIG_A, SIG_B, frozenset({"gpu"})]
        data = sorted(data, key=lambda pair: pair[1])
        scalar = SupplyEstimator(window=120.0, num_buckets=8)
        for sid, t in data:
            scalar.record_checkin(table[sid], t)
        batched = SupplyEstimator(window=120.0, num_buckets=8)
        for chunk in (data[:split], data[split:]):
            if not chunk:
                continue
            sids = np.array([sid for sid, _ in chunk], dtype=np.int64)
            times = np.array([t for _, t in chunk], dtype=np.float64)
            batched.record_checkins_batch(sids, times, table)
        assert self._state(batched) == self._state(scalar)
        for sig in table:
            now = data[-1][1] + 50.0
            assert count_in_window(batched, sig, now) == count_in_window(scalar, 
                sig, now
            )
            assert batched.rate(sig, now) == scalar.rate(sig, now)

    def test_batch_rejects_unsorted_times(self):
        import numpy as np

        est = SupplyEstimator(window=100.0)
        with pytest.raises(ValueError):
            est.record_checkins_batch(
                np.array([0, 0]), np.array([5.0, 1.0]), [SIG_A]
            )

    def test_batch_rejects_time_regression(self):
        import numpy as np

        est = SupplyEstimator(window=100.0)
        est.record_checkin(SIG_A, 50.0)
        with pytest.raises(ValueError):
            est.record_checkins_batch(
                np.array([0]), np.array([10.0]), [SIG_A]
            )
