"""One repeat of one workload in one process; prints one JSON record.

The harness starts this module as a fresh subprocess per repeat, so every
repeat pays its imports, starts with cold program state and has its own
``ru_maxrss``.  :func:`run_repeat` is also importable, for the smoke test.

Modes: ``plain`` (untraced, timed), ``spans`` (policy boundary proxied, sweep
cells run serially in-process), ``profile`` (under cProfile), ``twin`` (fast
and reference engine on the smoke-scale input of a day workload).
"""

from __future__ import annotations

import time

_WALL0 = time.time()
_T0 = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import resource
import sys
from typing import Dict, List, Optional

from repro.analysis.aggregate import aggregate_rows
from repro.core.baselines import make_policy
from repro.experiments.endtoend import run_policy
from repro.experiments.sweep import build_cell_environment, run_sweep
from repro.resilience.record import metrics_digest
from repro.sim.engine import Simulator

from .modprofile import profiled
from .spans import PolicyProxy, Spans
from .workloads import (
    POLICY,
    SWEEP_SCENARIOS,
    SWEEP_WORKERS,
    WORKLOADS,
    Workload,
    day_inputs,
    simulation_config,
    sweep_cells,
    sweep_preset,
)

MODES = ("plain", "spans", "profile", "twin")
_COUNTERS = ("total_checkins", "total_responses", "total_failures", "total_aborts")


def run_repeat(
    name: str,
    seed: int,
    mode: str,
    smoke: bool,
    t0: Optional[float] = None,
    startup_s: float = 0.0,
) -> Dict:
    """Run one repeat and return its record.  ``t0`` is the ``perf_counter``
    reading the repeat's clock starts from (default: now) and ``startup_s``
    what had already passed by then (interpreter start, in a subprocess)."""
    workload = WORKLOADS[name]
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.perf_counter() if t0 is None else t0
    if mode == "twin":
        return {"mode": mode, "digests": _twin(workload, seed)}
    spans = Spans()
    run = _day if workload.kind == "day" else _sweep
    if mode == "profile":
        record, table, calls = profiled(lambda: run(workload, seed, smoke, spans, mode))
        record["profile"] = table
        record["profile_calls"] = calls
    else:
        record = run(workload, seed, smoke, spans, mode)
    record["mode"] = mode
    record["setup_s"] = startup_s + record.pop("ready") - t0
    record["total_s"] = startup_s + record.pop("done") - t0
    record["phases"] = spans.totals()
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.kind == "sweep":
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = usage / 1024.0
    if mode == "spans":
        origin = min(p["start"] for p in spans.phases)
        record["calls"] = spans.reduce_calls()
        record["trace"] = [
            {**p, "start": p["start"] - origin, "end": p["end"] - origin}
            for p in spans.phases
        ]
    return record


# --------------------------------------------------------------------------- #
# Day cells
# --------------------------------------------------------------------------- #
def _day(workload: Workload, seed: int, smoke: bool, spans: Spans, mode: str) -> Dict:
    devices, availability, jobs = day_inputs(workload, seed, smoke, spans.phase)
    policy = make_policy(POLICY, seed=seed)
    if mode == "spans":
        policy = PolicyProxy(policy, spans)
    with spans.phase("sim.build"):
        sim = Simulator(
            devices, availability, jobs, policy, simulation_config(seed, fast=True)
        )
    ready = time.perf_counter()
    with spans.phase("sim.run"):
        metrics = sim.run()
    done = time.perf_counter()
    events = sim.events_processed
    return {
        "ready": ready,
        "done": done,
        "devices": len(devices),
        "events": events,
        "digests": {"day": f"{metrics_digest(metrics)}/{events}"},
        "sanity": _day_sanity(metrics, events),
        "sim": {
            "avg_jct_s": metrics.average_jct,
            "completion_rate": metrics.completion_rate,
            **{c: getattr(metrics, c) for c in _COUNTERS},
        },
        "plan": metrics.plan_maintenance or {},
    }


def _day_sanity(metrics, events: int) -> List[str]:
    """Predicates any finished run must satisfy; returns the ones that fail."""
    jobs = metrics.jobs.values()
    checks = {
        "completed <= jobs": sum(j.completed for j in jobs) <= len(metrics.jobs),
        "every JCT >= 0": all(j.jct is None or j.jct >= 0 for j in jobs),
        "rounds_completed <= num_rounds": all(
            j.rounds_completed <= j.num_rounds for j in jobs
        ),
        "events > 0": events > 0,
        "responses + failures > 0": (
            metrics.total_responses + metrics.total_failures > 0
        ),
    }
    return [name for name, ok in checks.items() if not ok]


def _twin(workload: Workload, seed: int) -> Dict[str, str]:
    """Fast and reference engine on the same smoke-scale input."""
    spans = Spans()
    digests = {}
    for engine, fast in (("fast", True), ("reference", False)):
        devices, availability, jobs = day_inputs(workload, seed, True, spans.phase)
        sim = Simulator(
            devices,
            availability,
            jobs,
            make_policy(POLICY, seed=seed),
            simulation_config(seed, fast=fast),
        )
        metrics = sim.run()
        digests[engine] = f"{metrics_digest(metrics)}/{sim.events_processed}"
    return digests


# --------------------------------------------------------------------------- #
# Sweep
# --------------------------------------------------------------------------- #
def _sweep(workload: Workload, seed: int, smoke: bool, spans: Spans, mode: str) -> Dict:
    cells = sweep_cells(seed)
    preset = sweep_preset(smoke)
    ready = time.perf_counter()
    cell_s: Dict[str, float] = {}
    if mode == "plain":
        with spans.phase("experiments.run_sweep"):
            rows = run_sweep(cells, preset=preset, workers=SWEEP_WORKERS)
    else:
        if mode == "profile":
            # One scenario under all three policies keeps the profiled pass
            # within the run's time; shares, not totals, are read from it.
            cells = [c for c in cells if c.scenario == SWEEP_SCENARIOS[0]]
        rows = []
        with spans.phase("experiments.serial"):
            for cell in cells:
                began = time.perf_counter()
                with spans.phase("experiments.env_build"):
                    env = build_cell_environment(cell, preset=preset)
                with spans.phase("experiments.run_policy"):
                    metrics = run_policy(env, cell.policy)
                cell_s[str(cell.index)] = time.perf_counter() - began
                rows.append(_metrics_row(cell, metrics))
    with spans.phase("analysis.aggregate"):
        aggregates = aggregate_rows(rows)
    done = time.perf_counter()

    ok = [row for row in rows if row.get("status") == "ok"]
    venn = [a for (_, policy), a in aggregates.items() if policy == POLICY]
    venn_jobs = sum(a.num_jobs for a in venn)
    return {
        "ready": ready,
        "done": done,
        "devices": workload.devices,
        "planned_cells": len(cells),
        "rows": len(rows),
        "failed_cells": sorted(
            row.get("cell", -1) for row in rows if row.get("status") != "ok"
        ),
        "cell_s": cell_s,
        # Device events: the only event count the sweep's rows carry.
        "events": sum(
            row["total_checkins"] + row["total_responses"] + row["total_failures"]
            for row in ok
        ),
        "digests": {f"cell{row['cell']}": _row_digest(row) for row in ok},
        "sanity": _sweep_sanity(ok),
        "sim": {
            "avg_jct_s": (
                sum(a.mean_jct * a.num_jobs for a in venn) / venn_jobs
                if venn_jobs
                else 0.0
            ),
            "completion_rate": (
                sum(a.completion_rate for a in venn) / len(venn) if venn else 0.0
            ),
            **{c: sum(row[c] for row in ok) for c in _COUNTERS},
        },
        "speedup_vs": {
            base: _speedup(aggregates, base) for base in ("random", "srsf")
        },
        "plan": {},
    }


def _metrics_row(cell, metrics) -> Dict:
    """The fields of a ``run_sweep`` row this benchmark reads, from the
    metrics of a cell run in-process."""
    return {
        "status": "ok",
        "cell": cell.index,
        "scenario": cell.scenario,
        "policy": cell.policy,
        "job_jcts": sorted(metrics.job_jcts().values()),
        "completion_rate": metrics.completion_rate,
        **{c: getattr(metrics, c) for c in _COUNTERS},
    }


def _row_digest(row: Dict) -> str:
    payload = repr((row["job_jcts"], [row[c] for c in _COUNTERS]))
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def _sweep_sanity(ok_rows: List[Dict]) -> List[str]:
    checks = {
        "every JCT >= 0": all(j >= 0 for row in ok_rows for j in row["job_jcts"]),
        "responses + failures > 0": all(
            row["total_responses"] + row["total_failures"] > 0 for row in ok_rows
        ),
    }
    return [name for name, ok in checks.items() if not ok]


def _speedup(aggregates, baseline: str) -> float:
    """Geometric mean over scenarios of pooled mean JCT(baseline) / JCT(venn)."""
    logs = [
        math.log(aggregates[(scenario, baseline)].mean_jct / venn.mean_jct)
        for (scenario, policy), venn in aggregates.items()
        if policy == POLICY and venn.mean_jct > 0 and (scenario, baseline) in aggregates
    ]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=_WALL0)
    args = parser.parse_args(argv)
    if WORKLOADS[args.workload].kind == "day" and hasattr(os, "sched_setaffinity"):
        # A day cell is one thread; keep it on one core so migrations do not
        # add to the spread.  The sweep keeps both cores for its two workers.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    record = run_repeat(
        args.workload,
        args.seed,
        args.mode,
        args.smoke,
        t0=_T0,
        startup_s=max(0.0, _WALL0 - args.spawned_at),
    )
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
