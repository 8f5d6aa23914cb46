"""Parallel scenario sweep: fan (scenario × seed × policy) cells over workers.

The sweep turns the repo from "reproduce the figures" into a scenario
exploration harness: pick scenarios from the registry
(:mod:`repro.scenarios`), a number of independent seeds and a set of
scheduling policies, and the runner executes every cell of the matrix —
optionally across a ``multiprocessing`` pool — writing one JSONL row per
cell plus an aggregated per-(scenario, policy) summary
(:mod:`repro.analysis.aggregate`).

Determinism is the load-bearing property:

* every (scenario, seed-index) pair gets its experiment root seed from
  ``numpy.random.SeedSequence(root_seed).spawn(...)`` keyed purely by the
  cell's position in the matrix, never by which worker runs it;
* inside a cell, all component streams derive from that root seed via the
  named streams of :class:`~repro.experiments.config.ExperimentConfig`;
* rows are serialised with sorted keys and written in cell order.

Together these make the JSONL output **byte-identical** for any worker
count, which the property tests assert by diffing ``--workers 1`` against
``--workers 2`` output.

Command line::

    python -m repro.experiments.sweep --smoke --workers 4 --out sweep.jsonl

``--smoke`` runs a small 4-scenario × 2-seed × 1-policy matrix sized for CI;
drop it (and pass ``--scenarios/--policies/--num-seeds``) for real sweeps.

Fault tolerance
---------------

A long sweep must survive one broken cell.  Every cell runs inside an
exception boundary: a cell that raises contributes a ``status:
"failed"`` row carrying the error and full traceback — the other cells run
to completion, aggregation skips the failed row, and the process exits
non-zero.  Rows are flushed to the JSONL file incrementally (one line per
completed cell), so a sweep killed mid-flight leaves the finished prefix
on disk; ``Ctrl-C`` terminates the worker pool cleanly and reports the
partial output.  The exception boundary sits inside the per-cell task, so
failed-row bytes are identical for any worker count too.  ``status`` is
``"ok"`` on every successful row.  ``--inject-crash-cell N`` deliberately
crashes cell N (the CI sweep-smoke job uses it to gate this machinery).

Co-simulation mode
------------------

``--cosim`` runs every cell as a federated co-simulation
(:mod:`repro.cosim`): after the simulation, the FedAvg trainer replays
every completed round on the clients the scheduler actually delivered,
and rows additionally carry per-job time-to-target-accuracy, final
accuracies and the run's decision/accuracy hashes.  ``--cosim --smoke``
runs a fixed 2-scenario (``non_iid_contention``, ``flash_crowd``) ×
2-policy (``random``, ``venn``) matrix; byte-identity across worker
counts holds exactly as in plain mode (the per-cell co-sim is deterministic for any
shard/worker layout).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from ..analysis.aggregate import (
    aggregate_cosim_rows,
    aggregate_rows,
    format_aggregates,
    format_cosim_aggregates,
    metrics_row,
)
from ..scenarios import get_scenario, scenario_names
from ..sim.metrics import SimulationMetrics
from .config import ExperimentConfig, get_config
from .endtoend import run_policy
from .environment import Environment

#: Matrix run by ``--smoke`` (and CI): the four original beyond-paper
#: scenarios, two seeds, the Venn scheduler — 8 cells.
SMOKE_SCENARIOS: Tuple[str, ...] = (
    "flash_crowd",
    "churn_storm",
    "straggler_heavy",
    "multi_tenant",
)
SMOKE_POLICIES: Tuple[str, ...] = ("venn",)
SMOKE_NUM_SEEDS = 2

#: Matrix run by ``--cosim --smoke`` (and the CI co-sim gate): the
#: diversity-sensitive contention scenario plus a burst scenario, under a
#: baseline and the Venn scheduler — time-to-accuracy rows for 2 policies
#: × 2 scenarios at one seed.
COSIM_SMOKE_SCENARIOS: Tuple[str, ...] = ("non_iid_contention", "flash_crowd")
COSIM_SMOKE_POLICIES: Tuple[str, ...] = ("random", "venn")
COSIM_SMOKE_NUM_SEEDS = 1

#: JCT percentiles recorded per cell.
ROW_PERCENTILES: Tuple[float, ...] = (50.0, 99.0)


@dataclass(frozen=True)
class SweepCell:
    """One cell of the sweep matrix.

    ``entropy`` is the cell's experiment root seed, derived by
    :func:`plan_cells` from the matrix position alone.  Cells that share a
    (scenario, seed-index) but differ in policy share their entropy — all
    policies see the same environment, keeping cross-policy comparisons
    attributable to the scheduler.
    """

    index: int
    scenario: str
    seed_index: int
    entropy: int
    policy: str


def plan_cells(
    scenarios: Sequence[str],
    num_seeds: int,
    policies: Sequence[str],
    root_seed: int = 0,
) -> List[SweepCell]:
    """Enumerate the (scenario × seed × policy) matrix deterministically."""
    if num_seeds <= 0:
        raise ValueError("num_seeds must be positive")
    if not scenarios or not policies:
        raise ValueError("need at least one scenario and one policy")
    if len(set(scenarios)) != len(scenarios):
        raise ValueError("duplicate scenario names in sweep")
    if len(set(policies)) != len(policies):
        raise ValueError("duplicate policy names in sweep")
    # Fail fast on unknown scenarios (in the parent, not deep in a worker).
    for name in scenarios:
        get_scenario(name)
    children = np.random.SeedSequence(root_seed).spawn(len(scenarios) * num_seeds)
    cells: List[SweepCell] = []
    index = 0
    for si, scenario in enumerate(scenarios):
        for ki in range(num_seeds):
            entropy = int(children[si * num_seeds + ki].generate_state(1, np.uint32)[0])
            for policy in policies:
                cells.append(
                    SweepCell(
                        index=index,
                        scenario=scenario,
                        seed_index=ki,
                        entropy=entropy,
                        policy=policy,
                    )
                )
                index += 1
    return cells


def smoke_base_config(seed: int) -> ExperimentConfig:
    """The base config behind ``--smoke``: ``quick`` with a doubled device
    pool and a few more jobs, so each cell is substantial enough (~0.2 s)
    that the worker pool's fork/IPC overhead cannot mask the parallel
    speedup CI asserts."""
    base = get_config("quick", seed=seed)
    return replace(
        base,
        name="smoke",
        num_devices=1600,
        num_jobs=20,
        workload=replace(base.workload, mean_interarrival=900.0),
    )


def build_cell_environment(
    cell: SweepCell, preset: str = "quick", smoke: bool = False
) -> Environment:
    """Materialise a cell's environment (scenario applied to the base preset)."""
    if smoke:
        base = smoke_base_config(seed=cell.entropy)
    else:
        base = get_config(preset, seed=cell.entropy)
    return get_scenario(cell.scenario).build_environment(base)


def _metrics_row(cell: SweepCell, metrics: SimulationMetrics, env: Environment) -> Dict:
    # The aggregation-facing core of the row (scenario, policy, job_jcts,
    # rate metrics, aborts) is built by the shared helper so the JSONL and
    # in-memory aggregation paths can never drift apart; the sweep adds
    # its cell provenance and the extra diagnostics on top.
    row = metrics_row(cell.scenario, cell.policy, metrics)
    percentiles = metrics.jct_percentiles(ROW_PERCENTILES)
    row.update({
        "cell": cell.index,
        "seed_index": cell.seed_index,
        "entropy": cell.entropy,
        "num_devices": env.num_devices,
        "num_jobs": env.num_jobs,
        "average_jct": metrics.average_jct,
        "p50_jct": percentiles[50.0],
        "p99_jct": percentiles[99.0],
        "average_round_duration": metrics.average_round_duration,
        "p50_round_duration": metrics.round_duration_percentile(50.0),
        "p99_round_duration": metrics.round_duration_percentile(99.0),
        "average_scheduling_delay": metrics.average_scheduling_delay,
        "average_response_time": metrics.average_response_time,
        "total_checkins": metrics.total_checkins,
        "total_responses": metrics.total_responses,
        "total_failures": metrics.total_failures,
    })
    return row


def run_cell(cell: SweepCell, preset: str = "quick", smoke: bool = False) -> Dict:
    """Run one cell end to end and return its JSONL row (a plain dict).

    Delegates to :func:`~repro.experiments.endtoend.run_policy` so sweep
    cells share one policy-seeding / simulator-wiring convention with the
    table/figure drivers — rows stay comparable with runner output.
    """
    spec = get_scenario(cell.scenario)
    env = build_cell_environment(cell, preset=preset, smoke=smoke)
    metrics = run_policy(
        env, cell.policy, dict(spec.policy_kwargs.get(cell.policy, {}))
    )
    return _metrics_row(cell, metrics, env)


def run_cosim_cell(cell: SweepCell, preset: str = "quick", smoke: bool = False) -> Dict:
    """Run one cell as a federated co-simulation and return its JSONL row.

    The row is a superset of :func:`run_cell`'s (so
    :func:`~repro.analysis.aggregate.aggregate_rows` still applies) plus
    the time-to-accuracy payload consumed by
    :func:`~repro.analysis.aggregate.aggregate_cosim_rows`.
    """
    # Imported lazily so plain sweeps never pay for the FL substrate.
    from ..cosim import CoSimConfig, CoSimulation, smoke_cosim_config

    spec = get_scenario(cell.scenario)
    env = build_cell_environment(cell, preset=preset, smoke=smoke)
    base_cfg = smoke_cosim_config() if smoke else CoSimConfig()
    cosim_cfg = base_cfg.with_overrides(spec.cosim)
    result = CoSimulation(
        env,
        cell.policy,
        policy_kwargs=dict(spec.policy_kwargs.get(cell.policy, {})),
        config=cosim_cfg,
    ).run()
    row = _metrics_row(cell, result.sim, env)
    row.update({
        "targets": [float(t) for t in result.targets],
        "time_to_target": {
            str(float(t)): {
                str(job_id): time
                for job_id, time in result.time_to_accuracy(t).items()
            }
            for t in result.targets
        },
        "final_accuracies": {
            str(job_id): job.final_accuracy
            for job_id, job in result.jobs.items()
        },
        "total_jobs": result.total_jobs,
        "rounds_trained": sum(len(j.rounds) for j in result.jobs.values()),
        "decision_hash": result.decision_hash,
        "accuracy_hash": result.accuracy_hash,
    })
    return row


def _failed_row(cell: SweepCell, exc: BaseException) -> Dict:
    """The JSONL row of a cell that raised.

    Carries full provenance plus the error and traceback, so a failed cell
    is diagnosable from the artifact alone.  The traceback is formatted
    from the frames below the task boundary only, which keeps the bytes
    identical whether the cell ran serially or in a pool worker.
    """
    return {
        "cell": cell.index,
        "scenario": cell.scenario,
        "policy": cell.policy,
        "seed_index": cell.seed_index,
        "entropy": cell.entropy,
        "status": "failed",
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def _run_cell_task(args: Tuple[SweepCell, str, bool, bool, bool]) -> Dict:
    """Run one cell inside the sweep's exception boundary.

    A raising cell becomes a ``status: "failed"`` row instead of
    propagating — one broken cell must not sink the sweep.  It is not
    retried: a cell is a deterministic function of its inputs, so a retry
    raises again.  ``KeyboardInterrupt`` always propagates (the pool is
    being torn down).
    """
    cell, preset, smoke, cosim, inject_crash = args
    try:
        if inject_crash:
            raise RuntimeError(f"injected sweep-cell crash (cell {cell.index})")
        if cosim:
            row = run_cosim_cell(cell, preset=preset, smoke=smoke)
        else:
            row = run_cell(cell, preset=preset, smoke=smoke)
        row["status"] = "ok"
        return row
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        return _failed_row(cell, exc)


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (workers inherit ``sys.path`` patched by the
    repo's conftest), else ``spawn`` (needs ``PYTHONPATH=src``)."""
    method = (
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    return multiprocessing.get_context(method)


def run_sweep(
    cells: Sequence[SweepCell],
    preset: str = "quick",
    smoke: bool = False,
    workers: int = 1,
    out_path: Optional[str] = None,
    log: Optional[TextIO] = None,
    cosim: bool = False,
    inject_crash_cells: Sequence[int] = (),
) -> List[Dict]:
    """Run every cell (serially or over a worker pool) and return the rows.

    Rows come back in cell order regardless of scheduling; when ``out_path``
    is given they are written there as JSONL (sorted keys, one row per
    line) so the bytes are reproducible for a fixed matrix and root seed.
    Rows are flushed incrementally — a sweep killed mid-flight leaves every
    completed cell's row on disk.  A cell that raises becomes a
    ``status: "failed"`` row (see :func:`_run_cell_task`);
    ``KeyboardInterrupt`` terminates the pool and propagates.
    ``cosim=True`` runs each cell through :func:`run_cosim_cell` instead
    of :func:`run_cell`; ``inject_crash_cells`` deliberately crashes the
    named cell indices.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    crash_set = set(inject_crash_cells)
    unknown = crash_set - {cell.index for cell in cells}
    if unknown:
        raise ValueError(
            f"inject_crash_cells names unknown cell indices: {sorted(unknown)}"
        )
    tasks = [
        (cell, preset, smoke, cosim, cell.index in crash_set)
        for cell in cells
    ]
    started = time.perf_counter()
    rows: List[Dict] = []
    out_fh: Optional[TextIO] = None
    if out_path:
        directory = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(directory, exist_ok=True)
        out_fh = open(out_path, "w")

    def emit(row: Dict) -> None:
        rows.append(row)
        if out_fh is not None:
            out_fh.write(json.dumps(row, sort_keys=True) + "\n")
            out_fh.flush()

    try:
        if workers == 1 or len(cells) <= 1:
            for task in tasks:
                emit(_run_cell_task(task))
        else:
            ctx = _pool_context()
            pool = ctx.Pool(processes=min(workers, len(cells)))
            try:
                # Ordered imap keeps rows aligned with cell indices while
                # streaming them back one at a time (incremental flush);
                # chunksize 1 load-balances uneven scenario runtimes.
                for row in pool.imap(_run_cell_task, tasks, chunksize=1):
                    emit(row)
                pool.close()
            except BaseException:
                # KeyboardInterrupt (and anything else) must not leave
                # worker processes behind; terminate before re-raising.
                pool.terminate()
                raise
            finally:
                pool.join()
    finally:
        if out_fh is not None:
            out_fh.close()
    elapsed = time.perf_counter() - started
    failed = sum(1 for row in rows if row.get("status") != "ok")
    if log is not None:
        log.write(
            f"ran {len(rows)} cells with {workers} worker(s) "
            f"in {elapsed:.2f}s"
            + (f" ({failed} failed)" if failed else "")
            + "\n"
        )
    return rows


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _parse_names(raw: str, kind: str) -> List[str]:
    names = [token.strip() for token in raw.split(",") if token.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"no {kind} given")
    return names


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Parallel (scenario x seed x policy) sweep runner."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fixed CI matrix (4 beyond-paper scenarios x 2 seeds x "
        "venn) on a shrunken base config",
    )
    parser.add_argument(
        "--cosim",
        action="store_true",
        help="run cells as federated co-simulations (time-to-accuracy rows); "
        "with --smoke runs the fixed 2-scenario x 2-policy co-sim matrix",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: all registered)",
    )
    parser.add_argument(
        "--policies",
        default="random,venn",
        help="comma-separated policy names (default: random,venn)",
    )
    parser.add_argument("--num-seeds", type=int, default=3)
    parser.add_argument("--root-seed", type=int, default=0)
    parser.add_argument(
        "--preset",
        default="quick",
        choices=["quick", "default", "large"],
        help="base experiment preset scenarios are applied to",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="JSONL output path")
    parser.add_argument(
        "--inject-crash-cell",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="deliberately crash cell N (repeatable; exercises the "
        "failed-row machinery, used by the CI sweep-smoke job)",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true", help="print scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in scenario_names():
            spec = get_scenario(name)
            tags = ",".join(spec.tags)
            print(f"{name:18s} [{tags}] {spec.description}")
        return 0

    if args.smoke and args.cosim:
        scenarios: Sequence[str] = COSIM_SMOKE_SCENARIOS
        policies: Sequence[str] = COSIM_SMOKE_POLICIES
        num_seeds = COSIM_SMOKE_NUM_SEEDS
    elif args.smoke:
        scenarios = SMOKE_SCENARIOS
        policies = SMOKE_POLICIES
        num_seeds = SMOKE_NUM_SEEDS
    else:
        scenarios = (
            _parse_names(args.scenarios, "scenarios")
            if args.scenarios
            else scenario_names()
        )
        policies = _parse_names(args.policies, "policies")
        num_seeds = args.num_seeds

    cells = plan_cells(scenarios, num_seeds, policies, root_seed=args.root_seed)
    try:
        rows = run_sweep(
            cells,
            preset=args.preset,
            smoke=args.smoke,
            workers=args.workers,
            out_path=args.out,
            log=sys.stderr,
            cosim=args.cosim,
            inject_crash_cells=args.inject_crash_cell or (),
        )
    except KeyboardInterrupt:
        print(
            "sweep interrupted; completed rows"
            + (f" are in {args.out}" if args.out else " were not persisted"),
            file=sys.stderr,
        )
        return 130
    print(format_aggregates(aggregate_rows(rows)))
    if args.cosim:
        print(format_cosim_aggregates(aggregate_cosim_rows(rows)))
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    failed = [row for row in rows if row.get("status") != "ok"]
    if failed:
        print(f"{len(failed)} cell(s) failed:", file=sys.stderr)
        for row in failed:
            print(
                f"  cell {row['cell']} ({row['scenario']}/{row['policy']} "
                f"seed {row['seed_index']}): {row['error']}",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())


__all__ = [
    "COSIM_SMOKE_NUM_SEEDS",
    "COSIM_SMOKE_POLICIES",
    "COSIM_SMOKE_SCENARIOS",
    "ROW_PERCENTILES",
    "SMOKE_NUM_SEEDS",
    "SMOKE_POLICIES",
    "SMOKE_SCENARIOS",
    "SweepCell",
    "build_cell_environment",
    "main",
    "plan_cells",
    "run_cell",
    "run_cosim_cell",
    "run_sweep",
    "smoke_base_config",
]
