"""Hypothesis property tests for the scenario subsystem.

The contract every registered scenario must honour: *whatever* base config
it is applied to, the materialised environment is schema-valid — sessions
inside the horizon, unique ids, positive demands, every job categorised.
Transforms reshape generator output, so this is the test that keeps them
honest as scenarios are added.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import quick_config
from repro.scenarios import (
    get_scenario,
    scenario_names,
    validate_environment,
)

DAY = 24 * 3600.0


def random_base(num_devices: int, num_jobs: int, horizon_frac: float, seed: int):
    base = quick_config(seed=seed)
    return replace(
        base,
        num_devices=num_devices,
        num_jobs=num_jobs,
        horizon=horizon_frac * DAY,
        workload=replace(base.workload, trace_size=60),
    )


config_strategy = st.builds(
    random_base,
    num_devices=st.integers(min_value=20, max_value=120),
    num_jobs=st.integers(min_value=2, max_value=8),
    horizon_frac=st.floats(min_value=0.2, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@given(base=config_strategy)
@settings(max_examples=8, deadline=None)
def test_every_registered_scenario_yields_valid_environments(base):
    for name in scenario_names():
        env = get_scenario(name).build_environment(base)
        validate_environment(env)


@given(base=config_strategy, name=st.sampled_from(scenario_names()))
@settings(max_examples=15, deadline=None)
def test_scenario_environments_are_reproducible(base, name):
    """Same spec + same base config => identical workload and trace."""
    spec = get_scenario(name)
    a = spec.build_environment(base)
    b = spec.build_environment(base)
    assert [
        (j.job_id, j.arrival_time, j.demand_per_round, j.num_rounds, j.round_deadline)
        for j in a.workload.jobs
    ] == [
        (j.job_id, j.arrival_time, j.demand_per_round, j.num_rounds, j.round_deadline)
        for j in b.workload.jobs
    ]
    assert a.availability.checkin_events() == b.availability.checkin_events()
    assert [d.speed_factor for d in a.devices] == [
        d.speed_factor for d in b.devices
    ]


@given(
    base=config_strategy,
    seed_a=st.integers(min_value=0, max_value=1000),
    seed_b=st.integers(min_value=1001, max_value=2000),
)
@settings(max_examples=10, deadline=None)
def test_different_seeds_give_different_environments(base, seed_a, seed_b):
    """Sanity check on the SeedSequence plumbing: distinct root seeds must
    not share component streams (the bug the old ``seed + k`` offsets had)."""
    spec = get_scenario("even")
    env_a = spec.build_environment(replace(base, seed=seed_a))
    env_b = spec.build_environment(replace(base, seed=seed_b))
    assert [d.cpu_score for d in env_a.devices] != [
        d.cpu_score for d in env_b.devices
    ]
    assert env_a.availability.checkin_events() != env_b.availability.checkin_events()
