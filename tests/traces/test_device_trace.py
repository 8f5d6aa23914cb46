"""Tests for the diurnal availability trace generator (Figure 2a)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.device_trace import (
    DAY,
    AvailabilitySession,
    DeviceAvailabilityTrace,
    DiurnalAvailabilityModel,
    DiurnalConfig,
)


def sessions_of(trace, device_id):
    return [s for s in trace.sessions if s.device_id == device_id]


class TestAvailabilitySession:
    def test_duration(self):
        s = AvailabilitySession(device_id=1, start=10.0, end=40.0)
        assert s.duration == 30.0

    def test_end_must_follow_start(self):
        with pytest.raises(ValueError):
            AvailabilitySession(device_id=1, start=10.0, end=10.0)


class TestDiurnalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalConfig(horizon=0)
        with pytest.raises(ValueError):
            DiurnalConfig(peak_availability=0.1, trough_availability=0.2)
        with pytest.raises(ValueError):
            DiurnalConfig(median_session=0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_horizon_must_be_finite(self, value):
        # inf used to make generate() loop forever, nan an empty trace.
        with pytest.raises(ValueError, match="horizon must be finite"):
            DiurnalConfig(horizon=value)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_median_session_must_be_finite(self, value):
        with pytest.raises(ValueError, match="median_session must be finite"):
            DiurnalConfig(median_session=value)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_peak_hour_must_be_finite(self, value):
        with pytest.raises(ValueError, match="peak_hour must be finite"):
            DiurnalConfig(peak_hour=value)

    @pytest.mark.parametrize(
        "value, message",
        [(-0.1, "non-negative"), (np.inf, "finite"), (np.nan, "finite")],
    )
    def test_session_sigma_must_be_finite_and_non_negative(self, value, message):
        # Session lengths are drawn as a standard normal scaled by sigma, so
        # a negative sigma would no longer fail inside numpy.
        with pytest.raises(ValueError, match=f"session_sigma must be {message}"):
            DiurnalConfig(session_sigma=value)

    def test_availability_oscillates_with_24h_period(self):
        cfg = DiurnalConfig(peak_hour=2.0)
        peak = cfg.availability_at(2 * 3600.0)
        trough = cfg.availability_at(14 * 3600.0)
        next_day_peak = cfg.availability_at(2 * 3600.0 + DAY)
        assert peak > trough
        assert peak == pytest.approx(next_day_peak)
        assert peak == pytest.approx(cfg.peak_availability, abs=1e-6)
        assert trough == pytest.approx(cfg.trough_availability, abs=1e-6)


class TestDiurnalAvailabilityModel:
    def test_requires_positive_population(self):
        with pytest.raises(ValueError):
            DiurnalAvailabilityModel(seed=0).generate(0)

    def test_sessions_within_horizon_and_ordered(self):
        cfg = DiurnalConfig(horizon=2 * DAY)
        trace = DiurnalAvailabilityModel(cfg, seed=1).generate(100)
        assert trace.num_devices <= 100
        for s in trace.sessions:
            assert 0.0 <= s.start < s.end <= cfg.horizon
        events = trace.checkin_events()
        assert events == sorted(events)

    def test_per_device_sessions_do_not_overlap(self):
        trace = DiurnalAvailabilityModel(DiurnalConfig(horizon=DAY), seed=2).generate(40)
        for dev in range(40):
            sessions = sorted(sessions_of(trace, dev), key=lambda s: s.start)
            for a, b in zip(sessions, sessions[1:]):
                assert a.end <= b.start

    def test_determinism(self):
        a = DiurnalAvailabilityModel(seed=5).generate(30)
        b = DiurnalAvailabilityModel(seed=5).generate(30)
        assert a.sessions == b.sessions

    def test_average_availability_near_target(self):
        cfg = DiurnalConfig(horizon=3 * DAY, peak_availability=0.3, trough_availability=0.12)
        trace = DiurnalAvailabilityModel(cfg, seed=3).generate(800)
        times, counts = trace.availability_curve(resolution=1800.0)
        # Ignore the warm-up ramp (first half day).
        steady = counts[times > DAY / 2] / 800.0
        target_mid = (0.3 + 0.12) / 2
        assert abs(float(np.mean(steady)) - target_mid) < 0.1

    def test_diurnal_swing_visible(self):
        """The availability curve should swing by well over 1.5x peak/trough."""
        cfg = DiurnalConfig(horizon=3 * DAY)
        trace = DiurnalAvailabilityModel(cfg, seed=4).generate(1000)
        times, counts = trace.availability_curve(resolution=1800.0)
        steady = counts[times > DAY]
        assert steady.max() > 1.5 * max(steady.min(), 1.0)


class TestAvailabilityCurveAndMerge:
    def test_curve_resolution_validation(self):
        trace = DeviceAvailabilityTrace(horizon=100.0)
        with pytest.raises(ValueError):
            trace.availability_curve(resolution=0)

    def test_curve_counts_overlapping_sessions(self):
        trace = DeviceAvailabilityTrace(
            horizon=100.0,
            sessions=[
                AvailabilitySession(0, 0.0, 50.0),
                AvailabilitySession(1, 25.0, 75.0),
            ],
        )
        times, counts = trace.availability_curve(resolution=10.0)
        assert counts.max() == 2
        assert counts[0] == 1  # only device 0 online at t=0
        assert counts[-1] == 0

    @given(
        n=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=20, deadline=None)
    def test_checkin_events_match_sessions(self, n, seed):
        """Property: the event view is a lossless, sorted view of the sessions."""
        trace = DiurnalAvailabilityModel(DiurnalConfig(horizon=DAY), seed=seed).generate(n)
        events = trace.checkin_events()
        assert len(events) == len(trace.sessions)
        assert all(start < end for (start, _, end) in events)
        assert [e[0] for e in events] == sorted(e[0] for e in events)


def sweep_line_curve(trace, resolution):
    """The dict sweep-line ``availability_curve`` used before the trace went
    columnar — kept as the reference for the sort + searchsorted form."""
    times = np.arange(0.0, trace.horizon + resolution, resolution)
    counts = np.zeros_like(times)
    deltas = {}
    for s in trace.sessions:
        deltas[s.start] = deltas.get(s.start, 0) + 1
        deltas[s.end] = deltas.get(s.end, 0) - 1
    boundary_times = sorted(deltas)
    online = 0
    idx = 0
    for k, t in enumerate(times):
        while idx < len(boundary_times) and boundary_times[idx] <= t:
            online += deltas[boundary_times[idx]]
            idx += 1
        counts[k] = online
    return times, counts


class TestColumnarTrace:
    def test_columns_are_the_representation(self):
        trace = DeviceAvailabilityTrace(
            100.0, device_ids=[4, 2], starts=[1.0, 0.5], ends=[2.0, 50.0]
        )
        assert len(trace) == 2
        assert trace.device_ids.dtype == np.int64
        assert trace.starts.dtype == trace.ends.dtype == np.float64
        assert trace.sessions == [
            AvailabilitySession(4, 1.0, 2.0),
            AvailabilitySession(2, 0.5, 50.0),
        ]
        assert trace.sessions is not trace.sessions  # built on demand
        same = DeviceAvailabilityTrace(100.0, sessions=trace.sessions)
        assert same.checkin_events() == trace.checkin_events() == [
            (0.5, 2, 50.0),
            (1.0, 4, 2.0),
        ]
        assert trace.num_devices == 2

    def test_empty_trace(self):
        trace = DeviceAvailabilityTrace(horizon=10.0)
        assert len(trace) == 0 and trace.sessions == [] and trace.num_devices == 0
        assert trace.checkin_events() == []
        assert [a.size for a in trace.checkin_events_arrays()] == [0, 0, 0]

    def test_end_must_follow_start_from_columns_and_from_sessions(self):
        with pytest.raises(ValueError, match="end must be after start"):
            DeviceAvailabilityTrace(
                10.0, device_ids=[0, 1], starts=[1.0, 5.0], ends=[2.0, 5.0]
            )
        with pytest.raises(ValueError, match="end must be after start"):
            AvailabilitySession(0, 5.0, 4.0)

        class Raw:  # a session-shaped object that skipped the dataclass check
            device_id, start, end = 0, 5.0, 4.0

        with pytest.raises(ValueError, match="end must be after start"):
            DeviceAvailabilityTrace(10.0, sessions=[Raw()])

    def test_columns_must_line_up(self):
        with pytest.raises(ValueError):
            DeviceAvailabilityTrace(10.0, device_ids=[0, 1], starts=[1.0], ends=[2.0])
        with pytest.raises(ValueError):
            DeviceAvailabilityTrace(
                10.0,
                sessions=[AvailabilitySession(0, 1.0, 2.0)],
                device_ids=[0], starts=[1.0], ends=[2.0],
            )

    @given(
        sessions=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                # Coarse grid: starts, ends and sample times collide often.
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=1, max_value=30),
            ),
            max_size=60,
        ),
        resolution=st.sampled_from([2.5, 5.0, 7.0, 50.0, 300.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_curve_equals_the_sweep_line(self, sessions, resolution):
        trace = DeviceAvailabilityTrace(
            horizon=200.0,
            sessions=[
                AvailabilitySession(d, 2.5 * s, 2.5 * (s + length))
                for d, s, length in sessions
            ],
        )
        times, counts = trace.availability_curve(resolution)
        ref_times, ref_counts = sweep_line_curve(trace, resolution)
        assert times.tolist() == ref_times.tolist()
        assert counts.dtype == ref_counts.dtype
        assert counts.tolist() == ref_counts.tolist()

    def test_curve_equals_the_sweep_line_on_a_generated_trace(self):
        trace = DiurnalAvailabilityModel(DiurnalConfig(horizon=DAY), seed=9).generate(300)
        for got, want in zip(
            trace.availability_curve(600.0), sweep_line_curve(trace, 600.0)
        ):
            assert got.tolist() == want.tolist()


class TestPerDeviceStreams:
    """The diurnal model's per-device SeedSequence keying: a device's
    sessions depend on (seed, device_id) only, so ``generate`` builds any
    subset of the population bit-identically — what
    ``experiments.environment.build_availability`` relies on."""

    def _model(self):
        from repro.traces.device_trace import (
            DiurnalAvailabilityModel,
            DiurnalConfig,
        )
        return DiurnalAvailabilityModel(
            DiurnalConfig(horizon=2 * 24 * 3600.0), seed=123
        )

    def test_subset_generation_matches_full_trace(self):
        full = self._model().generate(12)
        subset_ids = [1, 5, 11]
        subset = self._model().generate(12, device_ids=subset_ids)
        for dev in subset_ids:
            assert sessions_of(subset, dev) == sessions_of(full, dev)
        assert {s.device_id for s in subset.sessions} <= set(subset_ids)

    @given(
        subset=st.lists(st.integers(0, 39), min_size=1, max_size=40, unique=True),
        block=st.sampled_from([1, 2, 7, 1 << 14]),
    )
    @settings(max_examples=40, deadline=None)
    def test_generate_on_a_subset_is_the_full_trace_restricted(self, subset, block):
        """Any subset, in any order and across any lockstep block, gives the
        full trace's sessions of exactly those devices, device by device in
        the subset's order."""
        import repro.traces.device_trace as device_trace

        full = self._model().generate(40)
        original = device_trace._BLOCK
        device_trace._BLOCK = block
        try:
            part = self._model().generate(40, device_ids=subset)
        finally:
            device_trace._BLOCK = original
        assert part.sessions == [s for dev in subset for s in sessions_of(full, dev)]

    def test_population_size_does_not_change_a_device(self):
        small = self._model().generate(3)
        large = self._model().generate(30)
        for dev in range(3):
            assert sessions_of(small, dev) == sessions_of(large, dev)

    @pytest.mark.parametrize(
        "ids, message",
        [([0, 1, 2, 1], "distinct"), ([5, 5], "distinct"),
         ([0, 1, 2, 2**32], r"\[0, 2\*\*32\)"), ([0, 1, 2, -1], r"\[0, 2\*\*32\)")],
    )
    def test_bad_ids_are_refused_before_any_draw(self, monkeypatch, ids, message):
        """A repeated id would emit one device's sessions twice; an id past
        one uint32 word is another hash.  Both are refused up front, even
        when the bad id sits in a later lockstep block than good ones."""
        import repro.traces.device_trace as device_trace

        monkeypatch.setattr(device_trace, "_BLOCK", 2)
        built = []
        real = device_trace.LockstepPCG64
        monkeypatch.setattr(
            device_trace, "LockstepPCG64", lambda *a: built.append(a) or real(*a)
        )
        with pytest.raises(ValueError, match=message):
            DiurnalAvailabilityModel(DiurnalConfig(horizon=DAY), seed=8).generate(
                len(ids), device_ids=ids
            )
        assert built == []

    def test_checkin_events_arrays_match_tuple_form(self):
        import numpy as np

        trace = self._model().generate(20)
        starts, ids, ends = trace.checkin_events_arrays()
        tuples = trace.checkin_events()
        assert [tuple(t) for t in zip(starts, ids, ends)] == [
            (s, d, e) for (s, d, e) in tuples
        ]
