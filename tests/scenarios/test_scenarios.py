"""Unit tests for the scenario subsystem: registry, spec application and the
behaviour of each built-in beyond-paper scenario."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import quick_config
from repro.scenarios import (
    BEYOND_PAPER_SCENARIOS,
    NETWORK_SCENARIOS,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
    validate_environment,
)
from repro.scenarios.transforms import (
    assign_priority_tiers,
    compress_arrivals,
    inject_churn_storms,
    regional_outage,
    storm_windows,
)
from repro.traces.workloads import BIAS_SCENARIOS, DEMAND_SCENARIOS

DAY = 24 * 3600.0


def tiny_base(seed: int = 11):
    base = quick_config(seed=seed)
    return replace(
        base,
        num_devices=150,
        num_jobs=8,
        horizon=0.5 * DAY,
        workload=replace(base.workload, trace_size=80),
    )


class TestRegistry:
    def test_paper_and_beyond_paper_scenarios_registered(self):
        names = set(scenario_names())
        assert set(DEMAND_SCENARIOS) <= names
        assert set(BIAS_SCENARIOS) <= names
        assert set(BEYOND_PAPER_SCENARIOS) <= names

    def test_tag_filter(self):
        assert set(scenario_names(tag="beyond-paper")) == set(
            BEYOND_PAPER_SCENARIOS
        ) | set(NETWORK_SCENARIOS)
        assert set(scenario_names(tag="network")) == set(NETWORK_SCENARIOS)
        assert set(scenario_names(tag="paper")) == set(DEMAND_SCENARIOS) | set(
            BIAS_SCENARIOS
        )

    def test_unknown_scenario_error_lists_known_names(self):
        with pytest.raises(KeyError, match="flash_crowd"):
            get_scenario("no_such_scenario")

    def test_duplicate_registration_rejected(self):
        spec = ScenarioSpec(name="tmp_dup")
        register_scenario(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(ScenarioSpec(name="tmp_dup"))
            register_scenario(
                ScenarioSpec(name="tmp_dup", description="v2"), overwrite=True
            )
            assert get_scenario("tmp_dup").description == "v2"
        finally:
            unregister_scenario("tmp_dup")
        assert "tmp_dup" not in all_scenarios()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", num_devices=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", horizon=-1.0)


class TestSpecApplication:
    def test_overrides_reach_nested_configs(self):
        spec = ScenarioSpec(
            name="t",
            num_devices=99,
            num_jobs=5,
            workload={"mean_interarrival": 123.0},
            availability={"peak_availability": 0.4},
            capacity={"max_slowdown": 9.0},
            simulation={"enforce_daily_limit": False},
            latency={"compute_sigma": 0.5},
        )
        cfg = spec.apply(tiny_base())
        assert cfg.num_devices == 99
        assert cfg.num_jobs == 5
        assert cfg.workload.num_jobs == 5  # kept in sync by __post_init__
        assert cfg.workload.mean_interarrival == 123.0
        assert cfg.availability.peak_availability == 0.4
        assert cfg.capacity.max_slowdown == 9.0
        assert cfg.simulation.enforce_daily_limit is False
        assert cfg.simulation.latency.compute_sigma == 0.5
        assert "/t" in cfg.name

    def test_unknown_override_key_fails_fast(self):
        with pytest.raises(TypeError):
            ScenarioSpec(name="t", workload={"no_such_knob": 1}).apply(tiny_base())

    def test_overrides_owned_by_top_level_knobs_rejected(self):
        """Keys that ExperimentConfig.__post_init__ re-derives would be
        silently clobbered, so the spec refuses them at construction."""
        with pytest.raises(ValueError, match="num_jobs"):
            ScenarioSpec(name="t", workload={"num_jobs": 30})
        with pytest.raises(ValueError, match="horizon"):
            ScenarioSpec(name="t", availability={"horizon": 100.0})
        with pytest.raises(ValueError, match="root seed"):
            ScenarioSpec(name="t", simulation={"seed": 1})

    @pytest.mark.parametrize("value", [None, 0, "no"])
    def test_simulation_override_goes_through_config_validation(self, value):
        """``enforce_daily_limit=None`` used to turn the one-job-per-day
        limit off without a word; the override reaches
        ``SimulationConfig.__post_init__`` and is refused there."""
        spec = ScenarioSpec(name="t", simulation={"enforce_daily_limit": value})
        with pytest.raises(TypeError, match="enforce_daily_limit must be a bool"):
            spec.apply(tiny_base())

    def test_build_environment_is_deterministic(self):
        spec = get_scenario("flash_crowd")
        a = spec.build_environment(tiny_base(seed=5))
        b = spec.build_environment(tiny_base(seed=5))
        assert [j.arrival_time for j in a.workload.jobs] == [
            j.arrival_time for j in b.workload.jobs
        ]
        assert a.availability.checkin_events() == b.availability.checkin_events()

    def test_validate_environment_flags_job_count_mismatch(self):
        env = get_scenario("even").build_environment(tiny_base())
        env.workload.jobs.pop()
        with pytest.raises(AssertionError, match="job count"):
            validate_environment(env)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([0, 10**6, 10**6 + 1], [1.0, 2.0, 3.0], [5.0, 6.0, 7.0]),
             "session for unknown device 1000000"),
            (([0], [-1.0], [5.0]), "session bounds out of order"),
            (([0], [1.0], [10 * DAY]), "session extends past the horizon"),
        ],
    )
    def test_validate_environment_session_messages(self, columns, message):
        from dataclasses import replace

        from repro.traces.device_trace import DeviceAvailabilityTrace

        env = get_scenario("even").build_environment(tiny_base())
        ids, starts, ends = columns
        bad = DeviceAvailabilityTrace(
            env.availability.horizon, device_ids=ids, starts=starts, ends=ends
        )
        with pytest.raises(AssertionError, match=message):
            validate_environment(replace(env, availability=bad))


class TestFlashCrowd:
    def test_burst_concentrates_arrivals(self):
        base = tiny_base(seed=21)
        plain = get_scenario("even").build_environment(base)
        crowd = get_scenario("flash_crowd").build_environment(base)
        start = 0.2 * base.horizon
        window = (start, start + 900.0)

        def in_burst(env):
            return sum(
                1
                for j in env.workload.jobs
                if window[0] <= j.arrival_time <= window[1]
            )

        assert in_burst(crowd) > in_burst(plain)
        assert in_burst(crowd) >= 0.5 * len(crowd.workload.jobs)

    def test_transform_knob_validation(self):
        env = get_scenario("even").build_environment(tiny_base())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            compress_arrivals(env.workload, rng, env.config, burst_fraction=0.0)
        with pytest.raises(ValueError):
            compress_arrivals(env.workload, rng, env.config, burst_at=1.0)
        with pytest.raises(ValueError):
            compress_arrivals(env.workload, rng, env.config, burst_window=0.0)


class TestChurnStorm:
    def test_full_dropout_empties_storm_windows(self):
        env = get_scenario("even").build_environment(tiny_base(seed=31))
        rng = np.random.default_rng(0)
        stormed = inject_churn_storms(
            env.availability,
            rng,
            env.config,
            num_storms=1,
            storm_duration=3600.0,
            dropout_fraction=1.0,
        )
        horizon = env.config.horizon
        centre = horizon / 2.0
        start, end = centre - 1800.0, centre - 1800.0 + 3600.0
        for s in stormed.sessions:
            assert s.end <= start or s.start >= end, (
                f"session [{s.start}, {s.end}] overlaps storm [{start}, {end}]"
            )

    def test_partial_dropout_reduces_midstorm_population(self):
        base = tiny_base(seed=31)
        plain = get_scenario("even").build_environment(base)
        stormed = get_scenario("churn_storm").build_environment(base)
        # The registered scenario uses two storms at 1/3 and 2/3 of the
        # horizon with an 80% dropout.
        t = base.horizon / 3.0

        def online_at(trace, when):
            return sum(1 for s in trace.sessions if s.start <= when < s.end)

        assert online_at(stormed.availability, t) < online_at(
            plain.availability, t
        )

    def test_transform_knob_validation(self):
        env = get_scenario("even").build_environment(tiny_base())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            inject_churn_storms(env.availability, rng, env.config, num_storms=0)
        with pytest.raises(ValueError):
            inject_churn_storms(
                env.availability, rng, env.config, dropout_fraction=1.5
            )


class TestStragglerHeavy:
    def test_capacity_and_latency_overrides(self):
        cfg = get_scenario("straggler_heavy").apply(tiny_base())
        assert cfg.capacity.max_slowdown == 14.0
        assert cfg.simulation.latency.compute_sigma == 0.6

    def test_population_is_slower_on_average(self):
        base = tiny_base(seed=41)
        plain = get_scenario("even").build_environment(base)
        heavy = get_scenario("straggler_heavy").build_environment(base)
        mean_speed = lambda env: np.mean([d.speed_factor for d in env.devices])
        assert mean_speed(heavy) > 1.5 * mean_speed(plain)


class TestMultiTenant:
    def test_every_job_gets_a_tier_and_scaled_deadline(self):
        env = get_scenario("multi_tenant").build_environment(tiny_base(seed=51))
        tiers = {"gold": 0.6, "silver": 1.0, "bronze": 1.5}
        seen = set()
        base_env = get_scenario("even").build_environment(tiny_base(seed=51))
        base_deadlines = {
            j.job_id: j.round_deadline for j in base_env.workload.jobs
        }
        for job in env.workload.jobs:
            tier = job.name.split(":", 1)[0]
            assert tier in tiers, f"job {job.name!r} has no tier prefix"
            seen.add(tier)
            assert job.round_deadline == pytest.approx(
                base_deadlines[job.job_id] * tiers[tier]
            )
        assert len(seen) >= 2  # 8 jobs should hit at least two tiers

    def test_venn_policy_kwargs_request_six_tiers(self):
        assert get_scenario("multi_tenant").policy_kwargs["venn"] == {
            "num_tiers": 6
        }

    def test_tier_fraction_validation(self):
        env = get_scenario("even").build_environment(tiny_base())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            assign_priority_tiers(
                env.workload, rng, env.config, tiers=(("a", 0.5, 1.0),)
            )
        with pytest.raises(ValueError):
            assign_priority_tiers(
                env.workload,
                rng,
                env.config,
                tiers=(("a", 0.5, 1.0), ("b", 0.5, 0.0)),
            )


class TestNetworkScenarios:
    """Behaviour of the network-degradation family (knob plumbing plus the
    observable effect each scenario exists to produce)."""

    def test_all_registered_and_tagged(self):
        from repro.scenarios import NETWORK_SCENARIOS

        for name in NETWORK_SCENARIOS:
            spec = get_scenario(name)
            assert "network" in spec.tags
            assert "beyond-paper" in spec.tags

    def test_lossy_uplink_knobs_reach_latency_config(self):
        cfg = get_scenario("lossy_uplink").apply(tiny_base())
        latency = cfg.simulation.latency
        assert latency.loss_rate == 0.12
        assert latency.max_retries == 3
        assert latency.degrades_network

    def test_lossy_uplink_raises_error_rate(self):
        from repro.experiments.endtoend import run_policy

        base = tiny_base(seed=61)
        plain = run_policy(get_scenario("even").build_environment(base), "fifo")
        lossy = run_policy(
            get_scenario("lossy_uplink").build_environment(base), "fifo"
        )
        assert lossy.error_rate > plain.error_rate

    def test_link_flaps_knobs_reach_latency_config(self):
        cfg = get_scenario("link_flaps").apply(tiny_base())
        latency = cfg.simulation.latency
        assert latency.flap_period == 4 * 3600.0
        assert latency.flap_duration == 1200.0
        assert latency.flap_loss_rate == 0.6
        assert latency.degrades_network
        # Loss is elevated inside a flap window, baseline outside it.
        assert latency.effective_loss_rate(600.0) == pytest.approx(0.62)
        assert latency.effective_loss_rate(2000.0) == pytest.approx(0.02)

    def test_regional_outage_empties_region_then_heals(self):
        base = tiny_base(seed=71)
        plain = get_scenario("even").build_environment(base)
        outage = get_scenario("regional_outage").build_environment(base)
        horizon = base.horizon
        start, end = 0.45 * horizon, 0.45 * horizon + 7200.0

        def online_at(trace, when):
            return sum(1 for s in trace.sessions if s.start <= when < s.end)

        mid = (start + end) / 2.0
        assert online_at(outage.availability, mid) < online_at(
            plain.availability, mid
        )
        # The heal edge re-admits the region as fresh check-ins at the
        # window end.
        resumed = [
            s for s in outage.availability.sessions if s.start == end
        ]
        assert resumed, "no sessions resumed at the heal edge"

    def test_tiered_links_partition_the_population(self):
        from repro.sim.latency import ResponseLatencyModel

        cfg = get_scenario("tiered_links").apply(tiny_base())
        tiers = cfg.simulation.latency.link_tiers
        assert [t[0] for t in tiers] == ["fiber", "broadband", "cellular"]
        model = ResponseLatencyModel(
            cfg.simulation.latency, per_device_entropy=123
        )
        names = {model.link_tier_name(d) for d in range(300)}
        assert names == {"fiber", "broadband", "cellular"}

    def test_regional_outage_transform_knob_validation(self):
        env = get_scenario("even").build_environment(tiny_base())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            regional_outage(env.availability, rng, env.config, region_fraction=0.0)
        with pytest.raises(ValueError):
            regional_outage(env.availability, rng, env.config, outage_start=1.0)
        with pytest.raises(ValueError):
            regional_outage(env.availability, rng, env.config, outage_duration=0.0)

    def test_storm_window_knob_validation(self):
        with pytest.raises(ValueError):
            storm_windows(1000.0, 0, 60.0)
        with pytest.raises(ValueError):
            storm_windows(1000.0, 1, 0.0)


class TestNetworkScenarioIdentity:
    """Acceptance gate: every network scenario's metrics row is
    byte-identical across the two engines (worker identity is covered by
    ``tests/scenarios/test_fuzz.py``)."""

    @pytest.mark.parametrize(
        "name", ("lossy_uplink", "link_flaps", "regional_outage", "tiered_links")
    )
    def test_byte_identical_across_engines(self, name):
        from repro.scenarios.fuzz import check_scenario

        base = replace(
            tiny_base(seed=81),
            num_devices=60,
            num_jobs=5,
            horizon=0.25 * DAY,
        )
        check_scenario(get_scenario(name), base)
