"""Aggregation of sweep JSONL rows into per-(scenario, policy) summaries.

The sweep runner (:mod:`repro.experiments.sweep`) writes one row per
(scenario × seed × policy) cell.  This module folds those rows into the
numbers a scenario matrix is actually read by: mean / p50 / p99 JCT (pooled
over every job of every seed), SLA attainment and error rate per scenario
and policy.  It works off plain dicts so it can equally aggregate a
just-finished in-memory sweep or a JSONL artifact from CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .report import format_table
from .stats import mean_confidence_interval


@dataclass(frozen=True)
class AggregateRow:
    """Summary of all cells sharing one (scenario, policy) pair."""

    scenario: str
    policy: str
    num_cells: int
    num_jobs: int
    mean_jct: float
    p50_jct: float
    p99_jct: float
    sla_attainment: float
    error_rate: float
    completion_rate: float
    total_aborts: int
    #: Round-completion-time (FCT analogue) statistics, pooled over every
    #: completed round of every cell; 0.0 when no round completed (or the
    #: rows predate the ``round_durations`` field).
    num_rounds: int = 0
    mean_rct: float = 0.0
    p50_rct: float = 0.0
    p99_rct: float = 0.0


def aggregate_rows(
    rows: Sequence[Mapping],
) -> Dict[Tuple[str, str], AggregateRow]:
    """Fold sweep rows into per-(scenario, policy) aggregates.

    JCT statistics pool the per-job JCTs of every seed (each row's
    ``job_jcts`` list) rather than averaging per-cell averages, so scenarios
    with uneven job counts are weighted by job, not by cell.  Rate metrics
    (SLA attainment, error rate, completion rate) are cell means — each cell
    is one independent replication.
    """
    groups: Dict[Tuple[str, str], List[Mapping]] = {}
    for row in rows:
        if row.get("status", "ok") != "ok":
            # Failed sweep cells carry an error payload instead of metrics;
            # they are reported separately, never folded into aggregates.
            continue
        try:
            key = (str(row["scenario"]), str(row["policy"]))
        except KeyError as exc:
            raise ValueError(f"sweep row missing required field: {exc}") from None
        groups.setdefault(key, []).append(row)

    out: Dict[Tuple[str, str], AggregateRow] = {}
    for key in sorted(groups):
        scenario, policy = key
        cells = groups[key]
        jcts = np.array(
            [jct for row in cells for jct in row.get("job_jcts", ())], dtype=float
        )
        if jcts.size:
            mean_jct = float(jcts.mean())
            p50 = float(np.percentile(jcts, 50.0))
            p99 = float(np.percentile(jcts, 99.0))
        else:
            mean_jct = p50 = p99 = 0.0
        rcts = np.array(
            [d for row in cells for d in row.get("round_durations", ())],
            dtype=float,
        )
        if rcts.size:
            mean_rct = float(rcts.mean())
            p50_rct = float(np.percentile(rcts, 50.0))
            p99_rct = float(np.percentile(rcts, 99.0))
        else:
            mean_rct = p50_rct = p99_rct = 0.0
        out[key] = AggregateRow(
            scenario=scenario,
            policy=policy,
            num_cells=len(cells),
            num_jobs=int(jcts.size),
            mean_jct=mean_jct,
            p50_jct=p50,
            p99_jct=p99,
            sla_attainment=float(
                np.mean([row.get("sla_attainment", 0.0) for row in cells])
            ),
            error_rate=float(np.mean([row.get("error_rate", 0.0) for row in cells])),
            completion_rate=float(
                np.mean([row.get("completion_rate", 0.0) for row in cells])
            ),
            total_aborts=int(sum(row.get("total_aborts", 0) for row in cells)),
            num_rounds=int(rcts.size),
            mean_rct=mean_rct,
            p50_rct=p50_rct,
            p99_rct=p99_rct,
        )
    return out


def metrics_row(scenario: str, policy: str, metrics) -> Dict:
    """A minimal aggregation row built from one
    :class:`~repro.sim.metrics.SimulationMetrics`.

    In-memory twin of the sweep runner's JSONL rows: everything
    :func:`aggregate_rows` consumes, nothing serialised.
    """
    return {
        "scenario": scenario,
        "policy": policy,
        "job_jcts": sorted(metrics.job_jcts().values()),
        "round_durations": sorted(metrics.round_durations()),
        "sla_attainment": metrics.sla_attainment(),
        "error_rate": metrics.error_rate,
        "completion_rate": metrics.completion_rate,
        "total_aborts": metrics.total_aborts,
    }


# --------------------------------------------------------------------------- #
# Time-to-accuracy (co-simulation rows)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TargetAggregate:
    """Time-to-accuracy summary of one (scenario, policy, target) bucket."""

    target: float
    #: Jobs that reached the target / all workload jobs across the cells.
    attained_jobs: int
    total_jobs: int
    #: Mean and Student-t 95% CI of the time-to-target over attaining jobs
    #: (zero-width on 0/1 attaining jobs — see ``mean_confidence_interval``).
    mean_time: float
    time_ci_low: float
    time_ci_high: float

    @property
    def attainment(self) -> float:
        return self.attained_jobs / self.total_jobs if self.total_jobs else 0.0


@dataclass(frozen=True)
class CoSimAggregateRow:
    """Summary of all co-sim cells sharing one (scenario, policy) pair."""

    scenario: str
    policy: str
    num_cells: int
    total_jobs: int
    #: Mean final accuracy over the jobs that completed at least one round.
    mean_final_accuracy: float
    #: Per-target time-to-accuracy summaries, ascending by target.
    targets: Tuple[TargetAggregate, ...]

    def target(self, value: float) -> Optional[TargetAggregate]:
        for t in self.targets:
            if t.target == value:
                return t
        return None


def aggregate_cosim_rows(
    rows: Sequence[Mapping],
) -> Dict[Tuple[str, str], CoSimAggregateRow]:
    """Fold co-simulation sweep rows into per-(scenario, policy) summaries.

    Per-job times to each target pool across every cell of the pair (jobs
    that never reached a target contribute to the attainment denominator
    but not to the mean time), mirroring how :func:`aggregate_rows` pools
    per-job JCTs.  Rows are the dict/JSONL output of ``sweep --cosim``:
    ``targets`` (list of floats), ``time_to_target`` (``{str(target):
    {str(job_id): time-or-null}}``), ``final_accuracies``
    (``{str(job_id): accuracy}``) and ``total_jobs``.
    """
    groups: Dict[Tuple[str, str], List[Mapping]] = {}
    for row in rows:
        if row.get("status", "ok") != "ok":
            # Failed sweep cells carry an error payload instead of metrics.
            continue
        try:
            key = (str(row["scenario"]), str(row["policy"]))
        except KeyError as exc:
            raise ValueError(f"co-sim row missing required field: {exc}") from None
        groups.setdefault(key, []).append(row)

    out: Dict[Tuple[str, str], CoSimAggregateRow] = {}
    for key in sorted(groups):
        scenario, policy = key
        cells = groups[key]
        targets: Dict[float, List[float]] = {}
        total_jobs = 0
        finals: List[float] = []
        for row in cells:
            total_jobs += int(row.get("total_jobs", 0))
            finals.extend(float(a) for a in row.get("final_accuracies", {}).values())
            per_target = row.get("time_to_target", {})
            for raw_target in row.get("targets", ()):
                bucket = targets.setdefault(float(raw_target), [])
                times = per_target.get(str(raw_target), {})
                bucket.extend(float(t) for t in times.values() if t is not None)
        summaries = []
        for target in sorted(targets):
            times = targets[target]
            mean, low, high = mean_confidence_interval(times)
            summaries.append(
                TargetAggregate(
                    target=target,
                    attained_jobs=len(times),
                    total_jobs=total_jobs,
                    mean_time=mean,
                    time_ci_low=low,
                    time_ci_high=high,
                )
            )
        out[key] = CoSimAggregateRow(
            scenario=scenario,
            policy=policy,
            num_cells=len(cells),
            total_jobs=total_jobs,
            mean_final_accuracy=float(np.mean(finals)) if finals else 0.0,
            targets=tuple(summaries),
        )
    return out


def format_cosim_aggregates(
    aggregates: Mapping[Tuple[str, str], CoSimAggregateRow],
    title: str = "Time-to-accuracy (per scenario x policy x target)",
) -> str:
    """Plain-text table of co-sim aggregates, one row per target."""
    headers = [
        "scenario",
        "policy",
        "cells",
        "target",
        "attained",
        "mean TTA (s)",
        "95% CI (s)",
        "final acc",
    ]
    rows = []
    for _, agg in sorted(aggregates.items()):
        for t in agg.targets:
            rows.append(
                [
                    agg.scenario,
                    agg.policy,
                    agg.num_cells,
                    t.target,
                    f"{t.attained_jobs}/{t.total_jobs}",
                    t.mean_time,
                    f"[{t.time_ci_low:.0f}, {t.time_ci_high:.0f}]",
                    agg.mean_final_accuracy,
                ]
            )
    if not rows:
        return title + "\n(no rows)"
    return format_table(headers, rows, title=title)


def format_aggregates(
    aggregates: Mapping[Tuple[str, str], AggregateRow],
    title: str = "Sweep summary (per scenario x policy)",
) -> str:
    """Plain-text table of the aggregates, in scenario/policy order."""
    headers = [
        "scenario",
        "policy",
        "cells",
        "jobs",
        "mean JCT (s)",
        "p50 JCT (s)",
        "p99 JCT (s)",
        "p50 RCT (s)",
        "p99 RCT (s)",
        "SLA",
        "err rate",
        "aborts",
    ]
    rows = [
        [
            agg.scenario,
            agg.policy,
            agg.num_cells,
            agg.num_jobs,
            agg.mean_jct,
            agg.p50_jct,
            agg.p99_jct,
            agg.p50_rct,
            agg.p99_rct,
            agg.sla_attainment,
            agg.error_rate,
            agg.total_aborts,
        ]
        for _, agg in sorted(aggregates.items())
    ]
    if not rows:
        return title + "\n(no rows)"
    return format_table(headers, rows, title=title)


__all__ = [
    "AggregateRow",
    "CoSimAggregateRow",
    "TargetAggregate",
    "aggregate_cosim_rows",
    "aggregate_rows",
    "format_aggregates",
    "format_cosim_aggregates",
    "metrics_row",
]
