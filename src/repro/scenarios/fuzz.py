"""Scenario fuzzer: random ``ScenarioSpec`` compositions vs engine invariants.

The scenario layer grows by axes (demand bursts, churn, stragglers, network
degradation, ...) and every axis multiplies the space of *compositions* no
hand-written test enumerates.  This module samples that space with
hypothesis: random scenario specs — stacked availability/workload
transforms, extreme latency knobs, degenerate horizons — are materialised
against random base configs and checked against the invariants the rest of
the repo relies on:

* the environment is schema-valid (``validate_environment``: sessions inside
  the horizon, unique ids, positive demands, ...);
* transforms never move a job arrival past the horizon (the base Poisson
  process may legitimately overshoot it, so the check compares against a
  transform-free twin environment rather than asserting a blanket bound);
* a short simulation produces finite, non-negative metrics (JCTs,
  round-completion times, rates);
* the metrics row is **byte-identical across the single-queue and fleet
  engines** — and, on request, across sweep worker counts — extending the
  determinism contract of ``docs/ARCHITECTURE.md`` to every sampled
  composition.

Shrunk failing examples graduate into pinned regression tests
(``tests/scenarios/test_fuzz_regressions.py``); the ``compress_arrivals``
horizon overflow and the ``inject_churn_storms`` window overlap were both
found this way.

Run it from the command line (CI runs a fixed smoke budget)::

    PYTHONPATH=src python -m repro.scenarios.fuzz --budget 25 --seed 0
    PYTHONPATH=src python -m repro.scenarios.fuzz --budget 5 --check-workers
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import partial
from typing import Optional, Sequence, Tuple

from hypothesis import HealthCheck, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings
from hypothesis import strategies as st

from ..analysis.aggregate import metrics_row
from ..experiments.config import ExperimentConfig, quick_config
from ..experiments.endtoend import run_policy
from .registry import register_scenario, unregister_scenario
from .spec import ScenarioSpec, validate_environment
from .transforms import (
    assign_priority_tiers,
    chain_availability_transforms,
    chain_workload_transforms,
    compress_arrivals,
    inject_churn_storms,
    regional_outage,
)

DAY = 24 * 3600.0

#: Policy used for the invariant-checking runs.  FIFO is the cheapest
#: scheduler in the repo and exercises the whole engine/metrics path; the
#: identity properties hold per policy, so one is enough for fuzzing.
FUZZ_POLICY = "fifo"

#: Link-tier tables offered to the latency-override strategy (fractions must
#: sum to 1, so free-form float sampling would mostly produce invalid
#: tables; degenerate single-tier and extreme-scale tables are included on
#: purpose).
_TIER_TABLES: Tuple[Tuple[Tuple[str, float, float], ...], ...] = (
    (("only", 1.0, 1.0),),
    (("fast", 0.5, 0.1), ("slow", 0.5, 10.0)),
    (("fiber", 0.15, 0.35), ("broadband", 0.55, 1.0), ("cellular", 0.3, 2.6)),
    (("a", 0.25, 0.5), ("b", 0.25, 1.0), ("c", 0.25, 2.0), ("d", 0.25, 8.0)),
)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
def _availability_transforms() -> st.SearchStrategy:
    churn = st.builds(
        lambda **kw: partial(inject_churn_storms, **kw),
        num_storms=st.integers(min_value=1, max_value=8),
        storm_duration=st.floats(min_value=60.0, max_value=6 * 3600.0),
        dropout_fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    outage = st.builds(
        lambda **kw: partial(regional_outage, **kw),
        region_fraction=st.floats(min_value=0.05, max_value=1.0),
        outage_start=st.floats(min_value=0.0, max_value=0.999),
        outage_duration=st.floats(min_value=60.0, max_value=12 * 3600.0),
    )
    return st.one_of(churn, outage)


def _workload_transforms() -> st.SearchStrategy:
    burst = st.builds(
        lambda **kw: partial(compress_arrivals, **kw),
        burst_fraction=st.floats(min_value=0.05, max_value=1.0),
        # burst_at close to 1.0 is the regime that exposed the
        # horizon-overflow bug; keep it reachable.
        burst_at=st.floats(min_value=0.0, max_value=0.999),
        burst_window=st.floats(min_value=1.0, max_value=7200.0),
    )
    tiers = st.just(partial(assign_priority_tiers))
    return st.one_of(burst, tiers)


@st.composite
def latency_overrides(draw) -> dict:
    """Random (possibly empty) ``ScenarioSpec.latency`` override mapping."""
    overrides: dict = {}
    if draw(st.booleans()):
        overrides["loss_rate"] = draw(st.floats(min_value=0.0, max_value=0.95))
        overrides["max_retries"] = draw(st.integers(min_value=0, max_value=5))
        overrides["retry_backoff"] = draw(
            st.floats(min_value=0.1, max_value=3.0)
        )
    if draw(st.booleans()):
        # flap_duration requires a positive flap_period; draw them together.
        period = draw(st.floats(min_value=600.0, max_value=8 * 3600.0))
        overrides["flap_period"] = period
        overrides["flap_duration"] = draw(
            st.floats(min_value=30.0, max_value=period)
        )
        overrides["flap_loss_rate"] = draw(
            st.floats(min_value=0.0, max_value=1.0)
        )
    if draw(st.booleans()):
        overrides["link_tiers"] = draw(st.sampled_from(_TIER_TABLES))
    return overrides


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """Random scenario composition: 0-2 stacked transforms per axis plus
    latency-knob overrides, chained through the picklable ``chain_*``
    helpers so the sampled spec could be registered and swept as-is."""
    avail = draw(st.lists(_availability_transforms(), max_size=2))
    work = draw(st.lists(_workload_transforms(), max_size=2))
    return ScenarioSpec(
        name="fuzz",
        description="fuzzer-generated scenario composition",
        latency=draw(latency_overrides()),
        availability_transform=(
            partial(chain_availability_transforms, transforms=tuple(avail))
            if avail
            else None
        ),
        workload_transform=(
            partial(chain_workload_transforms, transforms=tuple(work))
            if work
            else None
        ),
        tags=("fuzz",),
    )


@st.composite
def base_configs(draw) -> ExperimentConfig:
    """Small random base configs, horizons from degenerate (15 min) to a
    full day."""
    base = quick_config(seed=draw(st.integers(min_value=0, max_value=2**31 - 1)))
    return replace(
        base,
        num_devices=draw(st.integers(min_value=15, max_value=60)),
        num_jobs=draw(st.integers(min_value=1, max_value=6)),
        horizon=draw(st.floats(min_value=900.0, max_value=DAY)),
        workload=replace(base.workload, trace_size=40),
    )


# --------------------------------------------------------------------------- #
# Invariant checks
# --------------------------------------------------------------------------- #
def _check_transformed_arrivals(spec: ScenarioSpec, env, config) -> None:
    """A workload transform must not move an arrival past the horizon.

    The base Poisson process is *allowed* to overshoot the horizon (its
    arrivals are a cumulative sum of exponential gaps), so compare against a
    transform-free twin environment: only arrivals the transform actually
    changed must land inside the horizon.
    """
    if spec.workload_transform is None:
        return
    twin = replace(spec, workload_transform=None).build_environment(config)
    untouched = {j.job_id: j.arrival_time for j in twin.workload.jobs}
    for job in env.workload.jobs:
        if job.arrival_time == untouched.get(job.job_id):
            continue
        assert 0.0 <= job.arrival_time <= config.horizon + 1e-9, (
            f"transform moved job {job.job_id} arrival to {job.arrival_time} "
            f"outside [0, {config.horizon}]"
        )


def _check_row_sane(row: dict) -> None:
    """Metrics must be finite; durations and JCTs non-negative."""
    for key in ("sla_attainment", "error_rate", "completion_rate"):
        assert math.isfinite(row[key]), f"{key} is not finite: {row[key]}"
        assert row[key] >= 0.0, f"{key} is negative: {row[key]}"
    for jct in row["job_jcts"]:
        assert math.isfinite(jct) and jct >= 0.0, f"bad JCT {jct}"
    for duration in row["round_durations"]:
        assert math.isfinite(duration) and duration >= 0.0, (
            f"bad round duration {duration}"
        )


def check_scenario(
    spec: ScenarioSpec,
    base: ExperimentConfig,
    *,
    check_workers: bool = False,
    policy: str = FUZZ_POLICY,
) -> None:
    """Assert every fuzzed invariant for one (spec, base config) pair.

    The pair runs on the single-queue reference
    (``vectorized_dispatch=False``) and again on its fleet engine twin; the
    two metrics rows must be byte-identical — the fuzz leg of the
    engine-identity contract.

    Raises ``AssertionError`` on the first violation; hypothesis shrinks
    the example, and the shrunk case belongs in
    ``tests/scenarios/test_fuzz_regressions.py``.
    """
    rows = []
    for fleet in (False, True):
        config = replace(
            base, simulation=replace(base.simulation, vectorized_dispatch=fleet)
        )
        env = spec.build_environment(config)
        validate_environment(env)
        _check_transformed_arrivals(spec, env, config)
        metrics = run_policy(env, policy)
        row = metrics_row(spec.name, policy, metrics)
        _check_row_sane(row)
        rows.append(json.dumps(row, sort_keys=True))
    assert rows[0] == rows[1], (
        "engine identity violated: single-queue vs fleet engine produced "
        "different metrics rows"
    )
    if check_workers:
        check_worker_identity(spec, policy=policy)


def check_worker_identity(
    spec: ScenarioSpec,
    *,
    policy: str = FUZZ_POLICY,
    workers: int = 2,
) -> None:
    """Sweep rows for the spec must be byte-identical across worker counts.

    The spec is registered under a temporary name so pool workers can
    resolve it; that only reaches forked workers (they inherit the parent's
    registry), so the check is skipped under a ``spawn``-only start method.
    Cells are built from the ``quick`` preset (the sweep runner owns base
    configs; per-cell seeds come from the matrix position).
    """
    import multiprocessing

    from ..experiments.sweep import plan_cells, run_sweep

    if "fork" not in multiprocessing.get_all_start_methods():
        return
    name = "fuzz_worker_identity"
    register_scenario(replace(spec, name=name), overwrite=True)
    try:
        # Two seeds -> two cells; a single cell short-circuits to the
        # serial path and would make the comparison vacuous.
        cells = plan_cells([name], num_seeds=2, policies=[policy], root_seed=7)
        serial = run_sweep(cells, preset="quick", workers=1)
        pooled = run_sweep(cells, preset="quick", workers=workers)
        serial_bytes = [json.dumps(r, sort_keys=True) for r in serial]
        pooled_bytes = [json.dumps(r, sort_keys=True) for r in pooled]
        assert serial_bytes == pooled_bytes, (
            f"worker-count identity violated: workers=1 vs workers={workers}"
        )
    finally:
        unregister_scenario(name)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fuzz random scenario compositions against engine "
        "invariants and engine/worker identity."
    )
    parser.add_argument(
        "--budget", type=int, default=25,
        help="number of hypothesis examples to run (default: 25)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="derandomised hypothesis seed (default: 0)",
    )
    parser.add_argument(
        "--check-workers", action="store_true",
        help="additionally assert sweep-row identity across worker counts "
        "(slower; fork start method only)",
    )
    args = parser.parse_args(argv)
    if args.budget <= 0:
        parser.error("--budget must be positive")

    # Built here (not at import time) so the CLI budget/seed become part of
    # the hypothesis profile; shrinking still works, so a failure prints the
    # minimal composition to pin as a regression test.
    @settings(
        max_examples=args.budget,
        deadline=None,
        database=None,
        derandomize=False,
        suppress_health_check=list(HealthCheck),
        print_blob=True,
    )
    @hypothesis_seed(args.seed)
    @given(spec=scenario_specs(), base=base_configs())
    def fuzz(spec: ScenarioSpec, base: ExperimentConfig) -> None:
        check_scenario(spec, base, check_workers=args.check_workers)

    fuzz()
    print(
        f"scenario fuzz: {args.budget} examples passed "
        f"(check_workers={args.check_workers})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "FUZZ_POLICY",
    "base_configs",
    "check_scenario",
    "check_worker_identity",
    "latency_overrides",
    "main",
    "scenario_specs",
]
