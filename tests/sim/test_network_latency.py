"""Tests for the network-degradation layer of the latency model.

Covers the lossy-uplink retry machinery, link-flap windows, static link
tiers, config validation, and the two contracts the engine relies on:

* with the network knobs at their defaults, ``sample_outcome`` consumes
  exactly the historical ``sample_duration`` + ``sample_failure`` draw
  sequence (golden fixtures and engine identity depend on this);
* ``_uniform`` maps hashes into the *open* interval (0, 1) — the extreme
  hash value that used to round to exactly 1.0 is pinned here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.latency import (
    _BELOW_ONE,
    _INV_2_64,
    _MASK64,
    _SM_MUL1,
    _SM_MUL2,
    _mix64,
    LatencyConfig,
    ResponseLatencyModel,
)
from repro.traces.capacity import CapacitySampler
from tests.conftest import make_device, make_job


# --------------------------------------------------------------------------- #
# SplitMix64 inversion (test-only): find the key whose hash is extreme.
# --------------------------------------------------------------------------- #
def _invert_xorshift(value: int, shift: int) -> int:
    """Invert ``x ^ (x >> shift)`` for 64-bit ``x``."""
    result = value
    for _ in range(64 // shift + 1):
        result = value ^ (result >> shift)
    return result


def _unmix64(h: int) -> int:
    """Exact inverse of :func:`repro.sim.latency._mix64`."""
    z = _invert_xorshift(h, 31)
    z = (z * pow(_SM_MUL2, -1, 1 << 64)) & _MASK64
    z = _invert_xorshift(z, 27)
    z = (z * pow(_SM_MUL1, -1, 1 << 64)) & _MASK64
    z = _invert_xorshift(z, 30)
    return z


class TestUniformOpenInterval:
    def test_unmix_is_inverse_of_mix(self):
        for h in (0, 1, 0xDEADBEEF, _MASK64, _MASK64 - 12345):
            assert _mix64(_unmix64(h)) == h

    def test_extreme_hash_stays_below_one(self):
        """The all-ones hash used to produce (h + 1) * 2^-64 == 1.0 exactly,
        outside the documented open interval.  Pin the clamp."""
        model = ResponseLatencyModel(per_device_entropy=1)
        # Key of draw 0 of device 0 is the master entropy itself, so force
        # the master to the preimage of the all-ones hash.
        model._master = _unmix64(_MASK64)
        u = model._uniform(0, 0)
        assert ((_MASK64 + 1) * _INV_2_64) == 1.0  # the raw value is 1.0
        assert u == _BELOW_ONE
        assert 0.0 < u < 1.0

    def test_near_extreme_hashes_unchanged(self):
        """Hashes that do not round to 1.0 must keep their historical value
        bit-for-bit (golden fixtures)."""
        model = ResponseLatencyModel(per_device_entropy=1)
        h = _MASK64 - (1 << 12)  # well below the rounds-to-1.0 band
        model._master = _unmix64(h)
        assert model._uniform(0, 0) == (h + 1) * _INV_2_64


class TestConfigValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            LatencyConfig(loss_rate=-0.1)
        with pytest.raises(ValueError):
            LatencyConfig(loss_rate=1.1)
        with pytest.raises(ValueError):
            LatencyConfig(flap_loss_rate=1.5)

    def test_retry_knobs(self):
        with pytest.raises(ValueError):
            LatencyConfig(max_retries=-1)
        with pytest.raises(ValueError):
            LatencyConfig(retry_backoff=0.0)

    @pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["2.5", "3.0", "True"])
    def test_max_retries_must_be_an_int(self, value):
        """A float count (``3.0`` is what a JSON scenario override gives)
        used to pass construction and raise ``TypeError`` from the retry
        loop at the first lossy draw, mid-run; a bool passed as a count.
        Both are refused up front, as ``SimulationConfig`` refuses its."""
        with pytest.raises(TypeError, match="max_retries must be an int"):
            LatencyConfig(loss_rate=0.5, max_retries=value)

    def test_a_numpy_int_max_retries_runs(self):
        model = ResponseLatencyModel(
            LatencyConfig(loss_rate=0.5, max_retries=np.int64(2)),
            per_device_entropy=1,
        )
        duration, _dropped = model.sample_outcome(make_job(), make_device())
        assert duration > 0

    def test_flap_duration_requires_period(self):
        with pytest.raises(ValueError):
            LatencyConfig(flap_duration=10.0)
        LatencyConfig(flap_period=100.0, flap_duration=10.0)  # fine

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize(
        "name",
        [
            "compute_sigma", "comm_min", "comm_max",
            "loss_rate", "max_retries", "retry_backoff",
            "flap_period", "flap_duration", "flap_loss_rate",
        ],
    )
    def test_non_finite_knobs_are_rejected(self, name, value):
        # NaN slips past every ``x < 0`` check: a NaN knob used to run a
        # cell in which no job completed, and no error was raised.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LatencyConfig(**{name: value})

    @pytest.mark.parametrize("scale", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_link_tier_scale_is_rejected(self, scale):
        with pytest.raises(ValueError, match="must be finite"):
            LatencyConfig(link_tiers=(("a", 0.5, 1.0), ("b", 0.5, scale)))

    def test_link_tier_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LatencyConfig(link_tiers=(("a", 0.5, 1.0),))
        with pytest.raises(ValueError):
            LatencyConfig(link_tiers=(("a", 0.5, 1.0), ("b", 0.5, 0.0)))
        LatencyConfig(link_tiers=(("a", 0.5, 1.0), ("b", 0.5, 2.0)))  # fine

    def test_effective_loss_rate_flap_windows(self):
        cfg = LatencyConfig(
            loss_rate=0.1,
            flap_period=100.0,
            flap_duration=10.0,
            flap_loss_rate=0.5,
        )
        assert cfg.effective_loss_rate(5.0) == pytest.approx(0.6)
        assert cfg.effective_loss_rate(50.0) == pytest.approx(0.1)
        assert cfg.effective_loss_rate(205.0) == pytest.approx(0.6)  # periodic
        capped = LatencyConfig(
            loss_rate=0.8, flap_period=100.0, flap_duration=10.0,
            flap_loss_rate=0.9,
        )
        assert capped.effective_loss_rate(0.0) == 1.0  # capped at certainty

    def test_degrades_network_gate(self):
        assert not LatencyConfig().degrades_network
        assert not LatencyConfig(link_tiers=(("a", 1.0, 2.0),)).degrades_network
        assert LatencyConfig(loss_rate=0.1).degrades_network
        assert LatencyConfig(
            flap_period=100.0, flap_duration=10.0, flap_loss_rate=0.5
        ).degrades_network


class TestPristineDrawSequence:
    def test_sample_outcome_matches_historical_sequence(self):
        """With the network layer off, sample_outcome(job, dev) must equal
        sample_duration + sample_failure of a twin model, draw for draw."""
        job = make_job(base_task_duration=60.0)
        device = make_device(device_id=7, reliability=0.9)
        outcome_model = ResponseLatencyModel(per_device_entropy=42)
        legacy_model = ResponseLatencyModel(per_device_entropy=42)
        for _ in range(50):
            duration, dropped = outcome_model.sample_outcome(
                job, device, now=1234.5
            )
            assert duration == legacy_model.sample_duration(job, device)
            assert dropped == legacy_model.sample_failure(device)


class TestBatchDrawsFromColumns:
    @pytest.mark.parametrize(
        "config",
        [
            LatencyConfig(),
            LatencyConfig(loss_rate=0.4, link_tiers=[("a", 0.5, 1.0), ("b", 0.5, 3.0)]),
        ],
        ids=["pristine", "lossy-tiered"],
    )
    def test_batch_over_columns_matches_scalar_outcomes(self, config):
        """The fleet engine draws a flush from the fleet's columns; the
        scalar ``sample_outcome(job, profile)`` is its oracle, element for
        element, with repeats (a device's stream advances in order)."""
        fleet = CapacitySampler(seed=3).sample_devices(40)
        rows = np.array([3, 17, 3, 0, 39, 17, 22, 3])
        jobs = [make_job(i, base_task_duration=30.0 + i) for i in range(len(rows))]
        batch = ResponseLatencyModel(config, per_device_entropy=5)
        scalar = ResponseLatencyModel(config, per_device_entropy=5)
        for _ in range(2):
            drawn = batch.sample_outcomes_batch(
                jobs,
                fleet.device_id[rows],
                fleet.speed_factor[rows],
                fleet.reliability[rows],
                now=50.0,
            )
            assert drawn == [
                scalar.sample_outcome(job, fleet[row], now=50.0)
                for job, row in zip(jobs, rows.tolist())
            ]
        assert batch._draw_counts == scalar._draw_counts
        assert all(type(key) is int for key in batch._draw_counts)


class TestLossyUplink:
    def test_exhausted_retries_drop_the_report(self):
        """With reliability 1.0 the only dropout source is transfer loss;
        the rate must match loss_rate^(1 + max_retries)."""
        cfg = LatencyConfig(loss_rate=0.9, max_retries=2)
        model = ResponseLatencyModel(cfg, per_device_entropy=5)
        job = make_job(base_task_duration=60.0)
        device = make_device(reliability=1.0)
        drops = sum(
            model.sample_outcome(job, device)[1] for _ in range(4000)
        )
        assert drops / 4000 == pytest.approx(0.9**3, abs=0.03)

    def test_lost_attempts_inflate_duration(self):
        job = make_job(base_task_duration=60.0)
        device = make_device(reliability=1.0)
        pristine = ResponseLatencyModel(per_device_entropy=6)
        lossy = ResponseLatencyModel(
            LatencyConfig(loss_rate=0.5, max_retries=3, retry_backoff=1.0),
            per_device_entropy=6,
        )
        base_mean = np.mean(
            [pristine.sample_outcome(job, device)[0] for _ in range(2000)]
        )
        lossy_mean = np.mean(
            [lossy.sample_outcome(job, device)[0] for _ in range(2000)]
        )
        assert lossy_mean > base_mean

    def test_zero_loss_rate_draws_no_extra_uniforms(self):
        """loss_rate=0 with retries configured must not consume loss draws
        (the gate is on the knobs, not on the loop outcome)."""
        job = make_job(base_task_duration=60.0)
        device = make_device(device_id=3, reliability=0.9)
        gated = ResponseLatencyModel(
            LatencyConfig(loss_rate=0.0, max_retries=5), per_device_entropy=9
        )
        legacy = ResponseLatencyModel(per_device_entropy=9)
        for _ in range(20):
            assert gated.sample_outcome(job, device) == (
                legacy.sample_duration(job, device),
                legacy.sample_failure(device),
            )

    def test_expected_duration_includes_retry_inflation(self):
        job = make_job(base_task_duration=60.0)
        device = make_device(reliability=1.0)
        pristine = ResponseLatencyModel(per_device_entropy=6)
        lossy = ResponseLatencyModel(
            LatencyConfig(loss_rate=0.5, max_retries=3), per_device_entropy=6
        )
        assert lossy.expected_duration(job, device) > pristine.expected_duration(
            job, device
        )
        empirical = np.mean(
            [lossy.sample_outcome(job, device)[0] for _ in range(4000)]
        )
        expected = lossy.expected_duration(job, device)
        assert abs(empirical - expected) / expected < 0.1


class TestLinkTiers:
    TIERS = (("fast", 0.5, 0.1), ("slow", 0.5, 10.0))

    def _model(self, entropy=11):
        return ResponseLatencyModel(
            LatencyConfig(link_tiers=self.TIERS), per_device_entropy=entropy
        )

    def test_assignment_is_static_and_deterministic(self):
        a, b = self._model(), self._model()
        for device_id in range(200):
            assert a.link_tier(device_id) == b.link_tier(device_id)
            assert a.link_tier(device_id) in (0, 1)

    def test_fractions_roughly_respected(self):
        model = self._model()
        slow = sum(model.link_tier(d) for d in range(400))
        assert 0.35 < slow / 400 < 0.65

    def test_tier_lookup_consumes_no_draws(self):
        """Tier membership is a salted hash, not a stream draw: querying it
        must not perturb the device's draw sequence."""
        job = make_job(base_task_duration=60.0)
        device = make_device(device_id=17)
        probed, plain = self._model(), self._model()
        probed.link_tier(device.device_id)
        assert probed.sample_duration(job, device) == plain.sample_duration(
            job, device
        )

    def test_tier_scales_comm_time(self):
        job = make_job(base_task_duration=0.001)  # comm-dominated
        model = self._model()
        fast = next(d for d in range(200) if model.link_tier(d) == 0)
        slow = next(d for d in range(200) if model.link_tier(d) == 1)
        fast_dev = make_device(device_id=fast)
        slow_dev = make_device(device_id=slow)
        assert model.expected_duration(job, slow_dev) > 5 * model.expected_duration(
            job, fast_dev
        )
        assert model.tail_duration(job, slow_dev) > model.tail_duration(
            job, fast_dev
        )

    def test_untiered_model_reports_default_tier(self):
        model = ResponseLatencyModel(per_device_entropy=1)
        assert model.link_tier(0) == 0

    def test_tiers_accept_lists_from_scenario_overrides(self):
        cfg = LatencyConfig(link_tiers=[["a", 0.5, 1.0], ["b", 0.5, 2.0]])
        assert cfg.link_tiers == (("a", 0.5, 1.0), ("b", 0.5, 2.0))
