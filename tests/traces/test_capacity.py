"""Tests for the device-capacity trace generator (Figures 2b / 8a)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requirements import GENERAL
from repro.traces.capacity import (
    CapacityConfig,
    CapacitySampler,
    MODEL_REQUIREMENTS,
)


class TestCapacityConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityConfig(correlation=1.5)
        with pytest.raises(ValueError):
            CapacityConfig(max_slowdown=0.5)
        with pytest.raises(ValueError):
            CapacityConfig(domain_probability=2.0)
        with pytest.raises(ValueError):
            CapacityConfig(mean_reliability=0.0)

    @pytest.mark.parametrize("field", ["cpu_mu", "mem_mu", "sigma", "max_slowdown"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_distribution_parameters_must_be_finite(self, field, value):
        # max_slowdown=inf used to give speed_factor=inf profiles and
        # sigma=nan a LinAlgError inside the SVD of the first sample.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CapacityConfig(**{field: value})


class TestCapacitySampler:
    def test_scores_in_unit_interval(self):
        sampler = CapacitySampler(seed=0)
        scores = sampler.sample_scores(500)
        assert scores.shape == (500, 2)
        assert (scores >= 0.0).all() and (scores <= 1.0).all()

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            CapacitySampler(seed=0).sample_scores(0)

    def test_scores_positively_correlated(self):
        sampler = CapacitySampler(seed=1)
        scores = sampler.sample_scores(3000)
        corr = np.corrcoef(scores[:, 0], scores[:, 1])[0, 1]
        assert corr > 0.3

    def test_devices_have_unique_sequential_ids(self):
        sampler = CapacitySampler(seed=2)
        devices = sampler.sample_devices(50, start_id=100)
        assert [d.device_id for d in devices] == list(range(100, 150))

    @pytest.mark.parametrize("n, start_id", [(5, -3), (5, 2**63 - 2), (1, 2**63)])
    def test_ids_outside_int64_are_refused_before_any_draw(self, n, start_id):
        # -3 used to give ids -3..1, and 2**63 - 2 to wrap to -2**63.
        sampler = CapacitySampler(seed=2)
        before = sampler._rng.bit_generator.state
        with pytest.raises(ValueError, match=r"device ids must lie in \[0, 2\*\*63\)"):
            sampler.sample_devices(n, start_id=start_id)
        assert sampler._rng.bit_generator.state == before

    def test_ids_reach_the_last_int64(self):
        devices = CapacitySampler(seed=2).sample_devices(5, start_id=2**63 - 5)
        assert devices.device_id.tolist() == list(range(2**63 - 5, 2**63))

    def test_speed_factor_decreases_with_capacity(self):
        devices = CapacitySampler(seed=3).sample_devices(2000)
        capability = 0.6 * devices.cpu_score + 0.4 * devices.memory_score
        weak = devices.speed_factor[capability < np.quantile(capability, 0.1)]
        strong = devices.speed_factor[capability > np.quantile(capability, 0.9)]
        assert strong.mean() < weak.mean()

    def test_speed_factor_bounded_by_config(self):
        cfg = CapacityConfig(max_slowdown=4.0)
        factors = CapacitySampler(cfg, seed=4).sample_devices(2000).speed_factor
        # Base at most max_slowdown; noise log-normal(0, 0.15): virtually
        # everything below ~2x the base.
        assert factors.max() < cfg.max_slowdown * 2.0
        assert factors.min() > 0.0

    def test_transient_memory_does_not_grow_with_n(self):
        """The stream is decoded a bounded block of words at a time: what
        ``sample_devices`` allocates beyond what it returns stays put."""

        def transient(n):
            tracemalloc.start()
            try:
                devices = CapacitySampler(seed=5).sample_devices(n)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(devices) == n
            return peak - held

        assert transient(80_000) <= transient(20_000)

    def test_determinism_under_seed(self):
        a = CapacitySampler(seed=9).sample_devices(20)
        b = CapacitySampler(seed=9).sample_devices(20)
        assert a == b

    def test_category_shares_nest(self):
        sampler = CapacitySampler(seed=5)
        devices = sampler.sample_devices(2000)
        shares = sampler.category_shares(devices)
        assert shares["general"] == pytest.approx(1.0)
        assert shares["high_performance"] <= shares["compute_rich"] + 1e-9
        assert shares["high_performance"] <= shares["memory_rich"] + 1e-9
        assert 0.0 < shares["high_performance"] < 1.0

    def test_category_shares_empty_population(self):
        shares = CapacitySampler.category_shares([])
        assert set(shares.values()) == {0.0}

    def test_model_eligibility_ordering(self):
        """Lightweight models qualify on more devices than heavyweight ones."""
        sampler = CapacitySampler(seed=6)
        devices = sampler.sample_devices(2000)
        shares = sampler.model_eligibility_shares(devices)
        assert shares["mobilenet"] > shares["mobilebert"] > shares["videosr"]
        assert set(shares) == set(MODEL_REQUIREMENTS)

    @given(n=st.integers(min_value=1, max_value=200), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_sampled_devices_always_valid(self, n, seed):
        """Property: every sampled device passes DeviceProfile validation and
        is eligible for the General category."""
        devices = CapacitySampler(seed=seed).sample_devices(n)
        assert len(devices) == n
        for d in devices:
            assert 0.0 <= d.cpu_score <= 1.0
            assert 0.0 <= d.memory_score <= 1.0
            assert d.speed_factor > 0
            assert GENERAL.is_eligible(d)
