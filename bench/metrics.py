"""Metric names, units, bounds, and their reduction from repeat records.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json`` lists.  Every
name is reported on every workload; a per-layer metric a workload does not
exercise reads 0 there (README, "Metrics that read 0").
"""

from __future__ import annotations

from statistics import median_high, median_low
from typing import Dict, List, Optional, Sequence

from .modprofile import LAYERS
from .workloads import SWEEP_WORKERS, Workload

#: name -> (unit, better, bound).  The bound is the share of the parent's
#: median by which a later change may worsen the metric.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "avg_jct_s": ("s", "lower", 0.1),
}

#: Whole-run wall-clock figures, reported with the per-layer metrics and so
#: without a bound: identical code measured up to 27 % apart between two
#: back-to-back sets on the box this was built on (README, "First numbers"),
#: more than the largest bound a metric may have.  Compare them with ``--ab``.
HOST_TIMES = {
    "total_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
}
#: Repeats of a host time further apart than this share are flagged noisy.
NOISY_SPAN = 0.1

_POLICY_HOOKS = {
    "on_response": ("on_response", "on_response_batch"),
    "on_checkin": ("on_device_checkin", "on_device_checkin_batch"),
    "on_request": ("on_request_open", "on_request_closed"),
    "on_job": ("on_job_arrival", "on_job_finished"),
}

#: name -> (unit, better)
PER_LAYER = {
    **HOST_TIMES,
    "traces.capacity_s": ("s", "lower"),
    "traces.availability_s": ("s", "lower"),
    "traces.workload_s": ("s", "lower"),
    "traces.us_per_device": ("us", "lower"),
    "sim.build_s": ("s", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.loop_self_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.us_per_event": ("us", "lower"),
    "sim.checkins": ("count", "higher"),
    "sim.responses": ("count", "higher"),
    "sim.failures": ("count", "lower"),
    "sim.aborts": ("count", "lower"),
    "sim.response_yield": ("ratio", "higher"),
    "sim.completion_rate": ("ratio", "higher"),
    "core.assign_calls": ("count", "lower"),
    "core.assign_s": ("s", "lower"),
    "core.assign_p50_us": ("us", "lower"),
    "core.assign_p99_us": ("us", "lower"),
    "core.assign_p999_us": ("us", "lower"),
    "core.assign_batch_calls": ("count", "lower"),
    "core.assign_batch_devices": ("count", "lower"),
    "core.assign_batch_s": ("s", "lower"),
    "core.assign_hit_ratio": ("ratio", "higher"),
    **{
        f"core.{hook}_{suffix}": (unit, "lower")
        for hook in _POLICY_HOOKS
        for suffix, unit in (("calls", "count"), ("s", "s"))
    },
    "core.share": ("ratio", "lower"),
    "core.plan_s": ("s", "lower"),
    "core.plan_full_rebuilds": ("count", "lower"),
    "core.plan_incremental_updates": ("count", "lower"),
    "core.plan_index_atoms_patched": ("count", "lower"),
    "core.assigns_per_plan_update": ("ratio", "higher"),
    "experiments.cells": ("count", "higher"),
    "experiments.failed_cells": ("count", "lower"),
    "experiments.cells_per_s": ("1/s", "higher"),
    "experiments.env_build_s": ("s", "lower"),
    "experiments.run_policy_s": ("s", "lower"),
    "experiments.env_build_share": ("ratio", "lower"),
    "experiments.serial_s": ("s", "lower"),
    "experiments.parallel_efficiency": ("ratio", "higher"),
    "analysis.aggregate_s": ("s", "lower"),
    "analysis.jct_speedup_vs_random": ("ratio", "higher"),
    "analysis.jct_speedup_vs_srsf": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    **{
        f"{layer}.{suffix}": (unit, "lower")
        for layer in LAYERS
        for suffix, unit in (("self_s", "s"), ("calls", "count"))
    },
    "profile.calls_total": ("count", "lower"),
    "profile.overhead_ratio": ("ratio", "lower"),
}


def summary(values: Sequence[float], unit: str, better: str, bound: float) -> Dict:
    """Median of the repeats with min, max and n; ``noisy`` when the repeats
    span more than the metric's bound.  With an even count the median is the
    better of the two middle repeats: on a shared box interference only ever
    makes a repeat worse, so this holds when half the repeats were disturbed."""
    mid = (median_low if better == "lower" else median_high)(values)
    return {
        "value": mid,
        "unit": unit,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "noisy": max(values) - min(values) > bound * abs(mid),
    }


def _run_s(record: Dict) -> float:
    """Wall time of the program's run call in an untraced record."""
    phases = record["phases"]
    return phases.get("sim.run") or phases["experiments.run_sweep"]


def end_to_end(plain: List[Dict]) -> Dict[str, Dict]:
    """End-to-end metrics from the untraced timed repeats."""
    columns = {
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "avg_jct_s": [r["sim"]["avg_jct_s"] for r in plain],
    }
    return {
        name: summary(columns[name], unit, better, bound)
        for name, (unit, better, bound) in END_TO_END.items()
    }


def host_times(plain: List[Dict]) -> Dict[str, Dict]:
    """The unbounded whole-run times from the untraced timed repeats."""
    columns = {
        "total_s": [r["total_s"] for r in plain],
        "events_per_s": [r["events"] / _run_s(r) for r in plain],
    }
    return {
        name: summary(columns[name], unit, better, NOISY_SPAN)
        for name, (unit, better) in HOST_TIMES.items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    workload: Workload, plain: Dict, spans: Dict, profile: Optional[Dict]
) -> Dict[str, Dict]:
    """Per-layer metrics from one untraced, one spans-traced and one profiled
    repeat of the same input."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    out["total_s"] = plain["total_s"]
    out["events_per_s"] = plain["events"] / _run_s(plain)
    phases, sim, plan = spans["phases"], spans["sim"], spans["plan"]
    calls = spans.get("calls", {})

    def hook(*methods: str) -> Dict:
        found = [calls[f"core.{m}"] for m in methods if f"core.{m}" in calls]
        return {
            "count": sum(c["count"] for c in found),
            "total_s": sum(c["total_s"] for c in found),
            "items": sum(c.get("items", 0) for c in found),
        }

    # traces
    for part in ("capacity", "availability", "workload"):
        out[f"traces.{part}_s"] = phases.get(f"traces.{part}", 0.0)
    if workload.kind == "day":
        out["traces.us_per_device"] = (
            1e6
            * (out["traces.capacity_s"] + out["traces.availability_s"])
            / spans["devices"]
        )

    # sim.  On the sweep run_policy is the narrowest public call, so sim.run_s
    # there includes Simulator construction and events are device events.
    run_s = phases.get("sim.run") or phases.get("experiments.run_policy", 0.0)
    in_run = [c for c in calls.values() if c["parent"] == "sim.run"]
    core_s = sum(c["total_s"] for c in in_run)
    out["sim.build_s"] = phases.get("sim.build", 0.0)
    out["sim.run_s"] = run_s
    out["sim.loop_self_s"] = run_s - core_s
    out["sim.events"] = spans["events"]
    out["sim.us_per_event"] = 1e6 * _ratio(run_s, spans["events"])
    out["sim.checkins"] = sim["total_checkins"]
    out["sim.responses"] = sim["total_responses"]
    out["sim.failures"] = sim["total_failures"]
    out["sim.aborts"] = sim["total_aborts"]
    outcomes = sim["total_responses"] + sim["total_failures"]
    out["sim.response_yield"] = _ratio(sim["total_responses"], outcomes)
    out["sim.completion_rate"] = sim["completion_rate"]

    # core, at the policy boundary
    assign = calls.get("core.assign", {})
    batch = hook("assign_batch", "assign_batch_bulk")
    out["core.assign_calls"] = assign.get("count", 0)
    out["core.assign_s"] = assign.get("total_s", 0.0)
    for q in ("p50", "p99", "p999"):
        out[f"core.assign_{q}_us"] = assign.get(f"{q}_us", 0.0)
    out["core.assign_batch_calls"] = batch["count"]
    out["core.assign_batch_devices"] = batch["items"]
    out["core.assign_batch_s"] = batch["total_s"]
    offered = out["core.assign_calls"] + batch["items"]
    # Assignments are counted by their outcomes: every assigned task ends as
    # a response or a failure (tasks in flight at the horizon are left out).
    out["core.assign_hit_ratio"] = _ratio(outcomes, offered) if calls else 0.0
    for name, methods in _POLICY_HOOKS.items():
        found = hook(*methods)
        out[f"core.{name}_calls"] = found["count"]
        out[f"core.{name}_s"] = found["total_s"]
    out["core.share"] = _ratio(core_s, run_s)
    updates = plan.get("incremental_updates", 0) + plan.get("full_rebuilds", 0)
    out["core.plan_s"] = plan.get("maintenance_time_s", 0.0)
    out["core.plan_full_rebuilds"] = plan.get("full_rebuilds", 0)
    out["core.plan_incremental_updates"] = plan.get("incremental_updates", 0)
    out["core.plan_index_atoms_patched"] = plan.get("index_atoms_patched", 0)
    out["core.assigns_per_plan_update"] = _ratio(outcomes, updates)

    # experiments / analysis
    if workload.kind == "sweep":
        sweep_s = plain["phases"]["experiments.run_sweep"]
        serial_s = phases["experiments.serial"]
        out["experiments.cells"] = plain["rows"]
        out["experiments.failed_cells"] = len(plain["failed_cells"])
        out["experiments.cells_per_s"] = _ratio(
            plain["rows"] - len(plain["failed_cells"]), sweep_s
        )
        out["experiments.env_build_s"] = phases["experiments.env_build"]
        out["experiments.run_policy_s"] = phases["experiments.run_policy"]
        out["experiments.env_build_share"] = _ratio(
            phases["experiments.env_build"], serial_s
        )
        out["experiments.serial_s"] = serial_s
        out["experiments.parallel_efficiency"] = _ratio(
            serial_s, SWEEP_WORKERS * sweep_s
        )
        out["analysis.aggregate_s"] = plain["phases"]["analysis.aggregate"]
        out["analysis.jct_speedup_vs_random"] = plain["speedup_vs"]["random"]
        out["analysis.jct_speedup_vs_srsf"] = plain["speedup_vs"]["srsf"]
    out["trace.overhead_ratio"] = _ratio(spans["total_s"], plain["total_s"])

    # module profile
    if profile is not None:
        for layer, row in profile["profile"].items():
            out[f"{layer}.self_s"] = row["self_s"]
            out[f"{layer}.calls"] = row["calls"]
        out["profile.calls_total"] = profile["profile_calls"]
        if workload.kind == "sweep":
            # The profiled pass runs a subset of the cells: compare like with
            # like, against the same cells of the spans pass.
            same = [spans["cell_s"][cell] for cell in profile["cell_s"]]
            out["profile.overhead_ratio"] = _ratio(
                sum(profile["cell_s"].values()), sum(same)
            )
        else:
            out["profile.overhead_ratio"] = _ratio(
                profile["total_s"], plain["total_s"]
            )
    return {
        name: {"value": out[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER
    }

