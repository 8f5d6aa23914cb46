"""Unit and property tests for the fairness / starvation-prevention knob."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness import FairnessController, default_solo_jct_estimator
from tests.conftest import make_job


class TestFairnessController:
    def test_epsilon_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            FairnessController(epsilon=-1.0)

    def test_default_solo_estimator_scales_with_rounds(self):
        short = make_job(rounds=2, base_task_duration=60.0)
        long = make_job(rounds=20, base_task_duration=60.0)
        assert default_solo_jct_estimator(long) > default_solo_jct_estimator(short)

    def test_register_defaults_to_the_solo_estimator(self):
        ctrl = FairnessController(epsilon=1.0)
        job = make_job(job_id=1, rounds=4, base_task_duration=60.0)
        ctrl.register_job(job, now=0.0)
        assert ctrl.fair_share_jct(1, num_active_jobs=3) == (
            3 * default_solo_jct_estimator(job)
        )

    def test_register_rejects_nonpositive_solo_jct(self):
        ctrl = FairnessController(epsilon=1.0)
        with pytest.raises(ValueError):
            ctrl.register_job(make_job(), now=0.0, solo_jct=0.0)

    def test_epsilon_zero_is_identity(self):
        ctrl = FairnessController(epsilon=0.0)
        job = make_job(job_id=1)
        ctrl.register_job(job, now=0.0, solo_jct=100.0)
        assert ctrl.adjusted_demand(1, 50.0, now=1000.0, num_active_jobs=5) == 50.0
        assert (
            ctrl.adjusted_queue_length([1], 3.0, now=1000.0, num_active_jobs=5) == 3.0
        )

    def test_untracked_job_demand_unchanged(self):
        ctrl = FairnessController(epsilon=2.0)
        assert ctrl.adjusted_demand(99, 10.0, now=50.0, num_active_jobs=3) == 10.0

    def test_fair_share_target(self):
        ctrl = FairnessController(epsilon=1.0)
        job = make_job(job_id=1)
        ctrl.register_job(job, now=0.0, solo_jct=100.0)
        assert ctrl.fair_share_jct(1, num_active_jobs=4) == 400.0

    def test_job_within_fair_share_gets_boosted(self):
        """A job that has consumed a small fraction of its fair share gets its
        demand shrunk (boosted priority)."""
        ctrl = FairnessController(epsilon=1.0)
        job = make_job(job_id=1)
        ctrl.register_job(job, now=0.0, solo_jct=1000.0)
        # At t=100 with M=10, fair share = 10000; ratio = 0.01.
        adjusted = ctrl.adjusted_demand(1, 100.0, now=100.0, num_active_jobs=10)
        assert adjusted < 100.0

    def test_job_past_fair_share_gets_deprioritised(self):
        ctrl = FairnessController(epsilon=1.0)
        job = make_job(job_id=1)
        ctrl.register_job(job, now=0.0, solo_jct=10.0)
        # At t=1000 with M=2, fair share = 20 << elapsed.
        adjusted = ctrl.adjusted_demand(1, 100.0, now=1000.0, num_active_jobs=2)
        assert adjusted > 100.0

    def test_queue_length_boost_for_underserved_group(self):
        ctrl = FairnessController(epsilon=1.0)
        for jid in (1, 2):
            ctrl.register_job(make_job(job_id=jid), now=0.0, solo_jct=1000.0)
        boosted = ctrl.adjusted_queue_length(
            [1, 2], 2.0, now=100.0, num_active_jobs=10
        )
        assert boosted > 2.0

    def test_forget_job(self):
        ctrl = FairnessController(epsilon=1.0)
        ctrl.register_job(make_job(job_id=1), now=0.0, solo_jct=100.0)
        ctrl.forget_job(1)
        # An untracked job's demand is not adjusted.
        assert ctrl.adjusted_demand(1, 5.0, now=50.0, num_active_jobs=1) == 5.0
        # Forgetting twice is harmless.
        ctrl.forget_job(1)

    @given(
        epsilon=st.floats(min_value=0.0, max_value=8.0),
        elapsed=st.floats(min_value=0.0, max_value=1e6),
        demand=st.floats(min_value=1.0, max_value=1e4),
        solo=st.floats(min_value=1.0, max_value=1e5),
        m=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_adjusted_demand_is_finite_and_positive(
        self, epsilon, elapsed, demand, solo, m
    ):
        """Property: the adjustment never produces zero, negative or infinite
        demands regardless of ε, elapsed time or fair-share target."""
        ctrl = FairnessController(epsilon=epsilon)
        ctrl.register_job(make_job(job_id=1), now=0.0, solo_jct=solo)
        adjusted = ctrl.adjusted_demand(1, demand, now=elapsed, num_active_jobs=m)
        assert adjusted > 0.0
        assert adjusted < float("inf")

    @given(
        eps_small=st.floats(min_value=0.0, max_value=2.0),
        eps_big=st.floats(min_value=2.0, max_value=8.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_larger_epsilon_amplifies_the_boost(self, eps_small, eps_big):
        """Property: for a job well within its fair share, a larger ε shrinks
        the adjusted demand at least as much as a smaller ε."""
        demand, solo, now, m = 100.0, 10000.0, 10.0, 10
        small = FairnessController(epsilon=eps_small)
        big = FairnessController(epsilon=eps_big)
        for ctrl in (small, big):
            ctrl.register_job(make_job(job_id=1), now=0.0, solo_jct=solo)
        assert big.adjusted_demand(1, demand, now, m) <= small.adjusted_demand(
            1, demand, now, m
        ) + 1e-9


class TestFairnessMonotonicity:
    """Monotonicity of the knob in its three inputs: elapsed time, fair-share
    target and ε (§4.4: jobs ahead of their fair share lose priority
    smoothly, never discontinuously)."""

    @given(
        epsilon=st.floats(min_value=0.1, max_value=6.0),
        t_small=st.floats(min_value=0.0, max_value=1e5),
        t_delta=st.floats(min_value=0.0, max_value=1e5),
        m=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_adjusted_demand_monotone_in_elapsed_time(
        self, epsilon, t_small, t_delta, m
    ):
        """More time in the system can only raise a job's adjusted demand
        (i.e. weaken its boost) — never lower it."""
        ctrl = FairnessController(epsilon=epsilon)
        ctrl.register_job(make_job(job_id=1), now=0.0, solo_jct=500.0)
        early = ctrl.adjusted_demand(1, 100.0, now=t_small, num_active_jobs=m)
        late = ctrl.adjusted_demand(
            1, 100.0, now=t_small + t_delta, num_active_jobs=m
        )
        assert late >= early - 1e-9

    @given(
        epsilon=st.floats(min_value=0.1, max_value=6.0),
        m_small=st.integers(min_value=1, max_value=20),
        m_extra=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_adjusted_demand_antitone_in_active_jobs(
        self, epsilon, m_small, m_extra
    ):
        """More concurrent jobs means a larger fair-share target, hence a
        stronger boost (smaller adjusted demand)."""
        ctrl = FairnessController(epsilon=epsilon)
        ctrl.register_job(make_job(job_id=1), now=0.0, solo_jct=100.0)
        crowded = ctrl.adjusted_demand(
            1, 50.0, now=300.0, num_active_jobs=m_small + m_extra
        )
        quiet = ctrl.adjusted_demand(1, 50.0, now=300.0, num_active_jobs=m_small)
        assert crowded <= quiet + 1e-9

    @given(
        epsilon=st.floats(min_value=0.0, max_value=6.0),
        elapsed=st.floats(min_value=0.0, max_value=1e6),
        m=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_queue_length_adjustment_finite_and_positive(
        self, epsilon, elapsed, m
    ):
        ctrl = FairnessController(epsilon=epsilon)
        ctrl.register_job(make_job(job_id=1), now=0.0, solo_jct=100.0)
        adjusted = ctrl.adjusted_queue_length(
            [1], 4.0, now=elapsed, num_active_jobs=m
        )
        assert 0.0 < adjusted < float("inf")

    @given(
        eps_small=st.floats(min_value=0.0, max_value=3.0),
        eps_delta=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_larger_epsilon_amplifies_the_penalty(self, eps_small, eps_delta):
        """Dual of the boost property: for a job past its fair share, larger
        ε inflates the adjusted demand at least as much."""
        demand, solo, now, m = 100.0, 10.0, 10_000.0, 2
        small = FairnessController(epsilon=eps_small)
        big = FairnessController(epsilon=eps_small + eps_delta)
        for ctrl in (small, big):
            ctrl.register_job(make_job(job_id=1), now=0.0, solo_jct=solo)
        assert big.adjusted_demand(1, demand, now, m) >= small.adjusted_demand(
            1, demand, now, m
        ) - 1e-9
