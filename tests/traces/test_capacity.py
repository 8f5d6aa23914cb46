"""Tests for the device-capacity trace generator (Figures 2b / 8a)."""

from __future__ import annotations

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

    def test_speed_factor_decreases_with_capacity(self):
        sampler = CapacitySampler(seed=3)
        slow_estimates = [sampler.speed_factor(0.05, 0.05) for _ in range(50)]
        fast_estimates = [sampler.speed_factor(0.95, 0.95) for _ in range(50)]
        assert np.mean(fast_estimates) < np.mean(slow_estimates)

    def test_speed_factor_bounded_by_config(self):
        cfg = CapacityConfig(max_slowdown=4.0)
        sampler = CapacitySampler(cfg, seed=4)
        factors = [sampler.speed_factor(0.0, 0.0) for _ in range(200)]
        # Noise is log-normal(0, 0.15): virtually everything below ~2x the base.
        assert max(factors) < cfg.max_slowdown * 2.0
        assert min(factors) > 0.0

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
