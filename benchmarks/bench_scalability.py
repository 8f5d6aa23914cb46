"""Scalability sweep: events/sec and check-in latency vs device/job count.

This is the benchmark behind the paper's ``max(O(m log m), O(n^2))``
complexity claim at realistic scale: it sweeps synthetic traces of
{1k, 10k, 100k, 1M} devices × {5, 50, 200} jobs through the simulator and
records, per cell,

* end-to-end events/sec of the simulation main loop,
* p50/p99/p99.9 latency of the policy's per-device ``assign`` decision,
* plan-maintenance work: full rebuilds, incremental in-place updates
  (= rebuilds avoided), index patch sizes and the wall-time share spent
  maintaining the plan (see ``repro/sim/profile.py``), and
* a decision hash — a digest of the full ``(time, device, job)``
  assignment sequence — so different code paths can be asserted
  bit-identical, not just similar.

Axes that can be compared:

* **indexed vs legacy-scan** (``--compare``): the ``AtomIndex`` +
  signature-bucketed dispatch fast path against the seed's pre-index linear
  scans (policy-side ``use_index=False`` plus
  ``SimulationConfig(indexed_dispatch=False)``).  The hash comparison is
  recorded in the speedup summary but not fatal: the golden tests pin the
  paths decision-identical at small scale, but under day-long heavy
  contention they can drift apart (the committed PR-1 baseline already
  recorded different event counts per path).
* **incremental vs full plan maintenance** (``--maintenance-compare``):
  the in-place delta layer (``repro/core/plan_delta.py``) against the
  from-scratch ``build_plan`` oracle.  Decision hashes must match exactly;
  the benchmark exits non-zero if they do not.
* **sharded vs single-queue engine** (``--num-shards 1,2,4,8``): the
  coordinator/device-shard engine (``repro/sim/shard.py``) at each listed
  shard count against the ``num_shards=1`` single-queue reference.  Both
  the decision hash *and* a metrics digest (counters + per-job JCTs) must
  match for every shard count — the sharded engine promises bit-identical
  runs for any shard layout — and the benchmark exits non-zero on any
  divergence (the CI ``shard-identity`` gate).
* **vectorized vs scalar hot path** (``--vectorized-compare``): the
  struct-of-arrays engine (``SimulationConfig(vectorized_dispatch=True)``,
  ``repro/sim/vector.py``) at every listed shard count against the scalar
  reference.  Decision hash, metrics digest and event count must all match
  — the vectorized-identity gate is fatal like the shard gate — and the
  per-shard-count events/sec ratio is recorded in the artifact.
* **batched vs per-device decisions** (``--assign-batch-compare``): every
  vectorized cell re-run with ``SimulationConfig(batched_assign=False)``,
  so large dispatch cohorts go through per-device ``assign`` consults
  instead of ``assign_batch_bulk``.  Decision hash, metrics digest and
  event count must match bit-for-bit (fatal), and the batched/unbatched
  events-per-second ratio is recorded.
* **checkpointed vs uncheckpointed** (``--checkpoint-compare``, interval
  ``--checkpoint-every``): the primary cell re-run with periodic
  full-state snapshots (``SimulationConfig(checkpoint_interval=N)``,
  ``docs/RESILIENCE.md``).  Checkpointing is pure observation, so the gate
  is fatal on any divergence; the artifact records snapshot count and the
  checkpoint wall-time share.

Every fatal gate prints the *first divergent decision record* (index,
simulated time, device, job — both runs' values) and the first differing
metrics field via :mod:`repro.resilience.record`, so a broken identity
contract is diagnosable from the CI log alone.

``--smoke`` runs one tiny cell across all combinations, including
``num_shards=2`` and the vectorized twin (seconds; used by CI), and
``--check-baseline`` fails the run when any
indexed/sharded/vectorized+incremental ``events_per_sec`` regresses more
than ``--max-regression`` against a committed artifact — the CI
``perf-smoke`` gate.

Examples
--------
CI smoke + regression gate::

    PYTHONPATH=src python benchmarks/bench_scalability.py --smoke \
        --check-baseline benchmarks/baselines/scalability_smoke.json

The acceptance cells (both comparisons, 24 h horizon)::

    PYTHONPATH=src python benchmarks/bench_scalability.py \
        --devices 100000 --jobs 50 --horizon-hours 24 \
        --compare --maintenance-compare \
        --output benchmarks/out/scalability_100k.json

The million-device cell with the shard sweep (the legacy scan takes ~40 min
and is skipped above ``--legacy-max-devices``)::

    PYTHONPATH=src python benchmarks/bench_scalability.py \
        --devices 1000000 --jobs 50 --horizon-hours 24 \
        --num-shards 1,2,4,8 \
        --maintenance-compare --output benchmarks/out/scalability_1m.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # allow running without pip install / PYTHONPATH
    sys.path.insert(0, _SRC)

from repro.core.baselines import make_policy  # noqa: E402
from repro.resilience.record import (  # noqa: E402
    RecordingPolicy,
    describe_metrics_divergence,
    format_divergence,
    metrics_digest,
)
from repro.sim.engine import SimulationConfig, Simulator  # noqa: E402
from repro.sim.latency import LatencyConfig  # noqa: E402
from repro.traces.capacity import CapacitySampler  # noqa: E402
from repro.traces.device_trace import (  # noqa: E402
    DiurnalAvailabilityModel,
    DiurnalConfig,
)
from repro.traces.workloads import WorkloadConfig, WorkloadGenerator  # noqa: E402


class TimedPolicy(RecordingPolicy):
    """:class:`~repro.resilience.record.RecordingPolicy` plus wall-clock
    timing of the decision entry points.

    The base class records actual assignments as plain ``(now, device_id,
    job_id)`` tuples (None decisions excluded, so the digest is comparable
    between the indexed and legacy dispatch paths, which offer different —
    but decision-equivalent — device streams to the policy), pickles into
    engine checkpoints (``--checkpoint-compare``) and lets a failed
    identity gate print the *first divergent decision* instead of two
    opaque hex strings.  This subclass only adds the per-``assign`` latency
    list and the batched-consult timers.
    """

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.assign_latencies: List[float] = []
        self.batch_assign_s = 0.0
        self.batch_devices = 0
        self.batch_proposals = 0

    def assign(self, device, now):
        t0 = time.perf_counter()
        out = super().assign(device, now)
        self.assign_latencies.append(time.perf_counter() - t0)
        return out

    def assign_batch_bulk(self, devices, now):
        t0 = time.perf_counter()
        consumed, proposals = super().assign_batch_bulk(devices, now)
        self.batch_assign_s += time.perf_counter() - t0
        self.batch_devices += consumed
        self.batch_proposals += len(proposals)
        return consumed, proposals


def build_cell(num_devices: int, num_jobs: int, horizon: float, seed: int):
    """Synthesise devices, availability trace and workload for one cell."""
    devices = CapacitySampler(seed=seed).sample_devices(num_devices)
    trace = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=horizon), seed=seed + 1
    ).generate(num_devices)
    workload = WorkloadGenerator(
        WorkloadConfig(
            num_jobs=num_jobs,
            # Size demand against the device pool so the workload stays
            # contended for the whole horizon (jobs churn rounds and retries
            # throughout) instead of finishing in the first simulated hours —
            # a benchmark cell that drains early never stresses the check-in
            # path at scale.
            demand_scale=0.5,
            min_demand=5,
            max_demand=max(10, num_devices // 10),
            rounds_scale=0.5,
            max_rounds=25,
            mean_interarrival=max(60.0, horizon / (2.0 * num_jobs)),
        ),
        seed=seed + 2,
    ).generate()
    return devices, trace, workload


def percentile_us(lat: np.ndarray, q: float) -> Optional[float]:
    if not lat.size:
        return None
    return round(float(np.percentile(lat, q)) * 1e6, 2)


#: Digest of the merged run metrics (counters + per-job censored JCTs).
#: The shard-identity gate compares this *in addition to* the decision
#: hash: identical decisions with a broken metrics reduction (e.g. a
#: double-counted shard) would still be caught.  Shared with the chaos
#: harness so every identity gate in the repo speaks one digest.
metrics_hash = metrics_digest


def run_cell(
    num_devices: int,
    num_jobs: int,
    horizon: float,
    seed: int,
    policy_name: str,
    indexed: bool,
    maintenance: str,
    repeats: int = 1,
    num_shards: int = 1,
    vectorized: bool = False,
    checkpoint_interval: Optional[int] = None,
    batched: bool = True,
) -> Dict:
    """Run one cell ``repeats`` times and keep the fastest run.

    Decisions are deterministic, so repeats must agree bit-for-bit (they
    are asserted to); only the wall clock varies.  Best-of-N is the honest
    choice on shared/noisy hardware: the minimum wall time is the closest
    observable to the code's actual cost.
    """
    best: Optional[Dict] = None
    for _ in range(max(1, repeats)):
        cell = _run_cell_once(
            num_devices, num_jobs, horizon, seed, policy_name, indexed,
            maintenance, num_shards, vectorized, checkpoint_interval,
            batched,
        )
        if best is not None and cell["decision_hash"] != best["decision_hash"]:
            raise AssertionError(
                "nondeterminism across benchmark repeats: "
                f"{cell['decision_hash']} != {best['decision_hash']}"
            )
        if best is None or cell["events_per_sec"] > best["events_per_sec"]:
            best = cell
    return best


def _run_cell_once(
    num_devices: int,
    num_jobs: int,
    horizon: float,
    seed: int,
    policy_name: str,
    indexed: bool,
    maintenance: str,
    num_shards: int = 1,
    vectorized: bool = False,
    checkpoint_interval: Optional[int] = None,
    batched: bool = True,
) -> Dict:
    devices, trace, workload = build_cell(num_devices, num_jobs, horizon, seed)
    kwargs = {}
    if policy_name.startswith("venn"):
        kwargs["use_index"] = indexed
        kwargs["plan_maintenance"] = maintenance
    policy = TimedPolicy(make_policy(policy_name, seed=seed, **kwargs))
    config = SimulationConfig(
        horizon=horizon,
        seed=seed,
        indexed_dispatch=indexed,
        latency=LatencyConfig(),
        max_events=200_000_000,
        num_shards=num_shards,
        vectorized_dispatch=vectorized,
        checkpoint_interval=checkpoint_interval,
        batched_assign=batched,
    )
    sim = Simulator(devices, trace, workload, policy, config)
    t0 = time.perf_counter()
    metrics = sim.run()
    wall = time.perf_counter() - t0
    lat = np.asarray(policy.assign_latencies, dtype=float)
    if vectorized and not batched:
        path = "vectorized-unbatched"
    elif vectorized:
        path = "vectorized"
    elif num_shards > 1:
        path = "sharded"
    elif indexed:
        path = "indexed"
    else:
        path = "legacy-scan"
    cell = {
        "devices": num_devices,
        "jobs": num_jobs,
        "horizon_s": horizon,
        "policy": policy.name,
        "path": path,
        "num_shards": num_shards,
        "plan_maintenance": (
            maintenance if policy_name.startswith("venn") else None
        ),
        "wall_s": round(wall, 4),
        "events": sim.events_processed,
        "events_per_sec": round(sim.events_processed / max(wall, 1e-9), 1),
        "checkins": metrics.total_checkins,
        "assign_calls": int(lat.size),
        "assign_p50_us": percentile_us(lat, 50),
        "assign_p99_us": percentile_us(lat, 99),
        # p99 hides the rebuild tail: the (few thousand) assigns that pay a
        # plan refresh live beyond the 99th percentile of (hundreds of
        # thousands of) calls.  p99.9 exposes them.
        "assign_p999_us": percentile_us(lat, 99.9),
        "completion_rate": metrics.completion_rate,
        "plan_rebuilds": getattr(policy, "plan_rebuilds", None),
        "decision_hash": policy.decision_hash,
        "metrics_hash": metrics_hash(metrics),
        # Raw records for first-divergence diagnostics on a failed gate;
        # underscore-prefixed keys are stripped before the artifact is
        # written (they are process-local, not JSON-friendly).
        "_decisions": policy.decisions,
        "_metrics": metrics,
    }
    if vectorized:
        cell["batched_assign"] = batched
        cell["batch_devices"] = policy.batch_devices
        cell["batch_proposals"] = policy.batch_proposals
        cell["batch_assign_s"] = round(policy.batch_assign_s, 4)
    if checkpoint_interval is not None:
        cell["checkpoint_interval"] = checkpoint_interval
        cell["checkpoints_taken"] = sim.checkpoints_taken
        cell["checkpoint_time_s"] = round(sim.checkpoint_time_s, 4)
        cell["checkpoint_time_share"] = round(
            sim.checkpoint_time_s / max(wall, 1e-9), 4
        )
    profile = metrics.plan_maintenance
    if profile is not None:
        cell["plan_incremental_updates"] = profile["incremental_updates"]
        cell["rebuilds_avoided"] = profile["rebuilds_avoided"]
        cell["plan_time_s"] = profile["maintenance_time_s"]
        cell["plan_time_share"] = round(
            profile["maintenance_time_s"] / max(wall, 1e-9), 4
        )
        cell["index_patches"] = profile["index_patches"]
        cell["index_atoms_patched"] = profile["index_atoms_patched"]
        cell["plan_triggers"] = profile["triggers"]
    return cell


def _print_divergence(
    cell_a: Dict, cell_b: Dict, label_a: str, label_b: str
) -> None:
    """Actionable gate output: the first divergent decision record (index,
    time, device, job — both runs' values), then the first differing
    metrics field — instead of two opaque hex digests."""
    print(
        "[cell]   "
        + format_divergence(
            cell_a["_decisions"], cell_b["_decisions"],
            label_a=label_a, label_b=label_b,
        ),
        file=sys.stderr, flush=True,
    )
    print(
        "[cell]   "
        + describe_metrics_divergence(
            cell_a["_metrics"], cell_b["_metrics"],
            label_a=label_a, label_b=label_b,
        ),
        file=sys.stderr, flush=True,
    )


def parse_int_list(text: str) -> List[int]:
    return [int(x) for x in text.replace(" ", "").split(",") if x]


def cell_combos(
    args, policy_is_venn: bool, num_devices: int
) -> List[Tuple[bool, str, int, bool]]:
    """(indexed, plan_maintenance, num_shards, vectorized) combos per cell.

    The shard sweep applies to the primary (indexed, primary-maintenance)
    configuration; the maintenance-compare and legacy-scan references run
    once, on the single-queue engine, since the shard-identity gate already
    pins every shard count to the num_shards=1 decisions bit-for-bit.
    ``--vectorized-compare`` adds a struct-of-arrays twin of every primary
    shard count, gated bit-identical against the scalar reference.
    """
    maint = args.plan_maintenance if policy_is_venn else "full"
    combos: List[Tuple[bool, str, int, bool]] = []
    if args.legacy_scan:
        combos.append((False, "full", 1, False))
        return combos
    for shards in args.shard_counts:
        combos.append((True, maint, shards, False))
    if 1 not in args.shard_counts:
        # The sharding comparison needs its single-queue reference.
        combos.insert(0, (True, maint, 1, False))
    if args.vectorized_compare:
        for shards in args.shard_counts:
            combos.append((True, maint, shards, True))
    if args.maintenance_compare and policy_is_venn:
        other = "full" if maint == "incremental" else "incremental"
        combos.append((True, other, 1, False))
    if args.compare and num_devices <= args.legacy_max_devices:
        # The legacy-scan reference always runs the paper-literal full
        # rebuild: it reproduces the seed's behaviour.  Cells above
        # --legacy-max-devices skip it (the linear scans take O(hours) at
        # 10^6 devices; the equivalence is already pinned at smaller cells
        # and by the golden tests).
        combos.append((False, "full", 1, False))
    return combos


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", default="1000,10000,100000,1000000",
                        help="comma-separated device counts")
    parser.add_argument("--jobs", default="5,50,200",
                        help="comma-separated job counts")
    parser.add_argument("--policy", default="venn",
                        help="policy name (see repro.core.baselines.make_policy)")
    parser.add_argument("--horizon-hours", type=float, default=24.0,
                        help="simulated horizon per cell")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=1,
                        help="run each cell N times and record the fastest "
                             "(decisions are asserted identical across "
                             "repeats; use >1 on noisy/shared hardware)")
    parser.add_argument("--plan-maintenance", default="incremental",
                        choices=["incremental", "full"],
                        help="Venn plan-maintenance mode for the primary run")
    parser.add_argument("--num-shards", default="1",
                        help="comma-separated device-shard counts for the "
                             "primary configuration (1 = single-queue "
                             "engine).  Decision and metrics hashes must "
                             "match across all counts; divergence fails "
                             "the run")
    parser.add_argument("--legacy-scan", action="store_true",
                        help="measure the pre-index linear-scan path only")
    parser.add_argument("--compare", action="store_true",
                        help="run each cell on both dispatch paths and report "
                             "the indexed/legacy speedup")
    parser.add_argument("--legacy-max-devices", type=int, default=200_000,
                        help="skip the legacy-scan reference for cells with "
                             "more devices than this (default 200k; the "
                             "linear scans take hours at 10^6 devices)")
    parser.add_argument("--maintenance-compare", action="store_true",
                        help="run each cell in both plan-maintenance modes, "
                             "assert decision identity and report the "
                             "incremental/full speedup")
    parser.add_argument("--checkpoint-compare", action="store_true",
                        help="run a periodically checkpointed twin of the "
                             "primary cell; decision hash, metrics hash and "
                             "event count must match the uncheckpointed run "
                             "bit-for-bit (fatal otherwise), and the "
                             "checkpoint overhead is recorded")
    parser.add_argument("--checkpoint-every", type=int, default=2000,
                        help="checkpoint interval in events for "
                             "--checkpoint-compare (default 2000)")
    parser.add_argument("--vectorized-compare", action="store_true",
                        help="run each primary shard count on the "
                             "struct-of-arrays hot path too; decision hash, "
                             "metrics hash and event count must match the "
                             "scalar run bit-for-bit (fatal otherwise)")
    parser.add_argument("--assign-batch-compare", action="store_true",
                        help="run an unbatched (batched_assign=False) twin "
                             "of every vectorized cell; decision hash, "
                             "metrics hash and event count must match the "
                             "batched run bit-for-bit (fatal otherwise).  "
                             "Implies --vectorized-compare")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep for CI (overrides sweep + horizon, "
                             "implies --compare, --maintenance-compare and "
                             "--vectorized-compare)")
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="committed artifact to compare against; fails "
                             "when indexed+incremental events_per_sec "
                             "regresses more than --max-regression")
    parser.add_argument("--max-regression", type=float, default=0.2,
                        help="tolerated fractional events_per_sec regression "
                             "for --check-baseline (default 0.2)")
    parser.add_argument("--output", default="benchmarks/out/scalability.json")
    args = parser.parse_args(argv)

    device_counts = parse_int_list(args.devices)
    job_counts = parse_int_list(args.jobs)
    horizon = args.horizon_hours * 3600.0
    args.shard_counts = parse_int_list(args.num_shards)
    if args.smoke:
        # Big enough that events_per_sec is stable (a sub-0.1 s cell would
        # make the CI regression gate pure noise), small enough to finish
        # all path/mode/shard combos in seconds.
        device_counts, job_counts, horizon = [5000], [8], 6 * 3600.0
        args.compare = True
        args.maintenance_compare = True
        args.vectorized_compare = True
        args.checkpoint_compare = True
        args.assign_batch_compare = True
        if args.shard_counts == [1]:
            args.shard_counts = [1, 2]
    if args.assign_batch_compare:
        # The unbatched twin compares against the vectorized cell.
        args.vectorized_compare = True

    policy_is_venn = args.policy.startswith("venn")
    decision_mismatch = False
    cells: List[Dict] = []
    for n_dev in device_counts:
        for n_jobs in job_counts:
            by_combo: Dict[Tuple[str, str, int], Dict] = {}
            for indexed, maintenance, shards, vectorized in cell_combos(
                args, policy_is_venn, n_dev
            ):
                if vectorized:
                    label = "vectorized"
                elif shards > 1:
                    label = "sharded"
                elif indexed:
                    label = "indexed"
                else:
                    label = "legacy-scan"
                print(
                    f"[cell] devices={n_dev} jobs={n_jobs} path={label} "
                    f"maintenance={maintenance} shards={shards} ...",
                    file=sys.stderr, flush=True,
                )
                cell = run_cell(
                    n_dev, n_jobs, horizon, args.seed, args.policy,
                    indexed, maintenance, repeats=args.repeats,
                    num_shards=shards, vectorized=vectorized,
                )
                by_combo[(label, maintenance, shards)] = cell
                cells.append(cell)
                print(
                    f"[cell]   {cell['events_per_sec']:.0f} events/s, "
                    f"p99/p99.9 assign {cell['assign_p99_us']}/"
                    f"{cell['assign_p999_us']} us, "
                    f"plan share {cell.get('plan_time_share', 'n/a')}, "
                    f"wall {cell['wall_s']:.1f} s",
                    file=sys.stderr, flush=True,
                )

            maint_primary = args.plan_maintenance if policy_is_venn else "full"
            base_key = ("indexed", maint_primary, 1)
            base_cell = by_combo.get(base_key)
            for shards in sorted(set(args.shard_counts)):
                if shards == 1:
                    continue
                sharded_cell = by_combo.get(("sharded", maint_primary, shards))
                if sharded_cell is None or base_cell is None:
                    continue
                identical = (
                    sharded_cell["decision_hash"] == base_cell["decision_hash"]
                    and sharded_cell["metrics_hash"] == base_cell["metrics_hash"]
                    and sharded_cell["events"] == base_cell["events"]
                )
                if not identical:
                    # Fatal: the sharded engine promises bit-identical
                    # decisions AND metrics for any shard count.
                    decision_mismatch = True
                    print(
                        f"[cell] devices={n_dev} jobs={n_jobs} "
                        f"SHARD IDENTITY DIVERGENCE at num_shards={shards}: "
                        f"decisions {sharded_cell['decision_hash'][:12]} vs "
                        f"{base_cell['decision_hash'][:12]}, metrics "
                        f"{sharded_cell['metrics_hash'][:12]} vs "
                        f"{base_cell['metrics_hash'][:12]}",
                        file=sys.stderr, flush=True,
                    )
                    _print_divergence(
                        base_cell, sharded_cell,
                        label_a="num_shards=1",
                        label_b=f"num_shards={shards}",
                    )
                ratio = (
                    sharded_cell["events_per_sec"]
                    / max(base_cell["events_per_sec"], 1e-9)
                )
                print(
                    f"[cell] devices={n_dev} jobs={n_jobs} "
                    f"sharded({shards})/single = {ratio:.2f}x, "
                    f"identical: {identical}",
                    file=sys.stderr, flush=True,
                )
                cells.append({
                    "devices": n_dev, "jobs": n_jobs,
                    "summary": "sharding", "num_shards": shards,
                    "events_per_sec_ratio": round(ratio, 3),
                    "decisions_identical": identical,
                })

            for shards in sorted(set(args.shard_counts)):
                vec_cell = by_combo.get(("vectorized", maint_primary, shards))
                if vec_cell is None:
                    continue
                scalar_key = (
                    ("sharded" if shards > 1 else "indexed"),
                    maint_primary, shards,
                )
                scalar_cell = by_combo.get(scalar_key) or base_cell
                if scalar_cell is None:
                    continue
                identical = (
                    vec_cell["decision_hash"] == scalar_cell["decision_hash"]
                    and vec_cell["metrics_hash"] == scalar_cell["metrics_hash"]
                    and vec_cell["events"] == scalar_cell["events"]
                )
                if not identical:
                    # Fatal: the vectorized hot path promises bit-identical
                    # decisions AND metrics to the scalar oracle.
                    decision_mismatch = True
                    print(
                        f"[cell] devices={n_dev} jobs={n_jobs} "
                        f"VECTORIZED IDENTITY DIVERGENCE at "
                        f"num_shards={shards}: decisions "
                        f"{vec_cell['decision_hash'][:12]} vs "
                        f"{scalar_cell['decision_hash'][:12]}, metrics "
                        f"{vec_cell['metrics_hash'][:12]} vs "
                        f"{scalar_cell['metrics_hash'][:12]}, events "
                        f"{vec_cell['events']} vs {scalar_cell['events']}",
                        file=sys.stderr, flush=True,
                    )
                    _print_divergence(
                        scalar_cell, vec_cell,
                        label_a="scalar", label_b="vectorized",
                    )
                ratio = (
                    vec_cell["events_per_sec"]
                    / max(scalar_cell["events_per_sec"], 1e-9)
                )
                print(
                    f"[cell] devices={n_dev} jobs={n_jobs} "
                    f"vectorized/scalar(shards={shards}) = {ratio:.2f}x, "
                    f"identical: {identical}",
                    file=sys.stderr, flush=True,
                )
                cells.append({
                    "devices": n_dev, "jobs": n_jobs,
                    "summary": "vectorized", "num_shards": shards,
                    "events_per_sec_ratio": round(ratio, 3),
                    "decisions_identical": identical,
                })

            if args.assign_batch_compare:
                for shards in sorted(set(args.shard_counts)):
                    vec_cell = by_combo.get(
                        ("vectorized", maint_primary, shards)
                    )
                    if vec_cell is None:
                        continue
                    print(
                        f"[cell] devices={n_dev} jobs={n_jobs} "
                        f"path=vectorized-unbatched "
                        f"maintenance={maint_primary} shards={shards} ...",
                        file=sys.stderr, flush=True,
                    )
                    unb_cell = run_cell(
                        n_dev, n_jobs, horizon, args.seed, args.policy,
                        True, maint_primary, repeats=args.repeats,
                        num_shards=shards, vectorized=True, batched=False,
                    )
                    cells.append(unb_cell)
                    identical = (
                        unb_cell["decision_hash"] == vec_cell["decision_hash"]
                        and unb_cell["metrics_hash"] == vec_cell["metrics_hash"]
                        and unb_cell["events"] == vec_cell["events"]
                    )
                    if not identical:
                        # Fatal: the batched decision path promises
                        # bit-identical decisions AND metrics to per-device
                        # consults.
                        decision_mismatch = True
                        print(
                            f"[cell] devices={n_dev} jobs={n_jobs} "
                            f"ASSIGN-BATCH IDENTITY DIVERGENCE at "
                            f"num_shards={shards}: decisions "
                            f"{unb_cell['decision_hash'][:12]} vs "
                            f"{vec_cell['decision_hash'][:12]}, metrics "
                            f"{unb_cell['metrics_hash'][:12]} vs "
                            f"{vec_cell['metrics_hash'][:12]}, events "
                            f"{unb_cell['events']} vs {vec_cell['events']}",
                            file=sys.stderr, flush=True,
                        )
                        _print_divergence(
                            unb_cell, vec_cell,
                            label_a="unbatched", label_b="batched",
                        )
                    ratio = (
                        vec_cell["events_per_sec"]
                        / max(unb_cell["events_per_sec"], 1e-9)
                    )
                    print(
                        f"[cell] devices={n_dev} jobs={n_jobs} "
                        f"batched/unbatched(shards={shards}) = {ratio:.2f}x, "
                        f"identical: {identical}",
                        file=sys.stderr, flush=True,
                    )
                    cells.append({
                        "devices": n_dev, "jobs": n_jobs,
                        "summary": "assign-batch", "num_shards": shards,
                        "events_per_sec_ratio": round(ratio, 3),
                        "decisions_identical": identical,
                    })

            if args.checkpoint_compare and base_cell is not None:
                print(
                    f"[cell] devices={n_dev} jobs={n_jobs} path=indexed "
                    f"maintenance={maint_primary} shards=1 "
                    f"checkpoint_every={args.checkpoint_every} ...",
                    file=sys.stderr, flush=True,
                )
                ckpt_cell = run_cell(
                    n_dev, n_jobs, horizon, args.seed, args.policy,
                    True, maint_primary, repeats=args.repeats,
                    num_shards=1, vectorized=False,
                    checkpoint_interval=args.checkpoint_every,
                )
                cells.append(ckpt_cell)
                identical = (
                    ckpt_cell["decision_hash"] == base_cell["decision_hash"]
                    and ckpt_cell["metrics_hash"] == base_cell["metrics_hash"]
                    and ckpt_cell["events"] == base_cell["events"]
                )
                if not identical:
                    # Fatal: periodic checkpointing is pure observation; it
                    # must never perturb a decision or a metric.
                    decision_mismatch = True
                    print(
                        f"[cell] devices={n_dev} jobs={n_jobs} "
                        f"CHECKPOINT IDENTITY DIVERGENCE at "
                        f"interval={args.checkpoint_every}: decisions "
                        f"{ckpt_cell['decision_hash'][:12]} vs "
                        f"{base_cell['decision_hash'][:12]}, metrics "
                        f"{ckpt_cell['metrics_hash'][:12]} vs "
                        f"{base_cell['metrics_hash'][:12]}",
                        file=sys.stderr, flush=True,
                    )
                    _print_divergence(
                        base_cell, ckpt_cell,
                        label_a="uncheckpointed", label_b="checkpointed",
                    )
                overhead = (
                    base_cell["events_per_sec"]
                    / max(ckpt_cell["events_per_sec"], 1e-9)
                )
                print(
                    f"[cell] devices={n_dev} jobs={n_jobs} "
                    f"checkpointing: {ckpt_cell['checkpoints_taken']} "
                    f"snapshots, {ckpt_cell['checkpoint_time_share']:.1%} of "
                    f"wall, uncheckpointed/checkpointed = {overhead:.2f}x, "
                    f"identical: {identical}",
                    file=sys.stderr, flush=True,
                )
                cells.append({
                    "devices": n_dev, "jobs": n_jobs,
                    "summary": "checkpoint",
                    "checkpoint_interval": args.checkpoint_every,
                    "checkpoints_taken": ckpt_cell["checkpoints_taken"],
                    "checkpoint_time_share": ckpt_cell["checkpoint_time_share"],
                    "events_per_sec_ratio": round(overhead, 3),
                    "decisions_identical": identical,
                })

            primary = ("indexed", maint_primary, 1)
            legacy = ("legacy-scan", "full", 1)
            if primary in by_combo and legacy in by_combo:
                speedup = (
                    by_combo[primary]["events_per_sec"]
                    / max(by_combo[legacy]["events_per_sec"], 1e-9)
                )
                same = (
                    by_combo[primary]["decision_hash"]
                    == by_combo[legacy]["decision_hash"]
                )
                print(
                    f"[cell] devices={n_dev} jobs={n_jobs} "
                    f"speedup indexed/legacy = {speedup:.2f}x, "
                    f"decisions identical: {same}",
                    file=sys.stderr, flush=True,
                )
                if not same:
                    # Not fatal: the dispatch paths are pinned
                    # decision-identical by the golden tests at small scale,
                    # but under day-long heavy contention they can drift
                    # apart (the committed PR-1 baseline already recorded
                    # different event counts per path — e.g. the tier
                    # matcher's rng draws follow the assign-call stream,
                    # which differs between paths).  The artifact records
                    # the hash comparison either way.
                    print(
                        f"[cell] devices={n_dev} jobs={n_jobs} note: "
                        "legacy/indexed decisions differ at this scale "
                        "(pre-existing; see summary record)",
                        file=sys.stderr, flush=True,
                    )
                cells.append({
                    "devices": n_dev, "jobs": n_jobs,
                    "summary": "speedup", "events_per_sec_ratio": round(speedup, 3),
                    "decisions_identical": same,
                })
            inc = ("indexed", "incremental", 1)
            full = ("indexed", "full", 1)
            if inc in by_combo and full in by_combo:
                if by_combo[inc]["decision_hash"] != by_combo[full]["decision_hash"]:
                    # This one IS fatal: incremental maintenance promises
                    # bit-identical decisions to the full-rebuild oracle.
                    decision_mismatch = True
                    print(
                        f"[cell] devices={n_dev} jobs={n_jobs} "
                        f"MAINTENANCE DECISION DIVERGENCE: "
                        f"incremental={by_combo[inc]['decision_hash'][:12]} "
                        f"full={by_combo[full]['decision_hash'][:12]}",
                        file=sys.stderr, flush=True,
                    )
                    _print_divergence(
                        by_combo[full], by_combo[inc],
                        label_a="full", label_b="incremental",
                    )
                ratio = (
                    by_combo[inc]["events_per_sec"]
                    / max(by_combo[full]["events_per_sec"], 1e-9)
                )
                print(
                    f"[cell] devices={n_dev} jobs={n_jobs} "
                    f"incremental/full = {ratio:.2f}x, "
                    f"rebuilds avoided {by_combo[inc].get('rebuilds_avoided')}, "
                    f"decisions identical: "
                    f"{by_combo[inc]['decision_hash'] == by_combo[full]['decision_hash']}",
                    file=sys.stderr, flush=True,
                )
                cells.append({
                    "devices": n_dev, "jobs": n_jobs,
                    "summary": "maintenance",
                    "events_per_sec_ratio": round(ratio, 3),
                    "rebuilds_avoided": by_combo[inc].get("rebuilds_avoided"),
                    "plan_time_share_incremental": by_combo[inc].get("plan_time_share"),
                    "plan_time_share_full": by_combo[full].get("plan_time_share"),
                    "decisions_identical": (
                        by_combo[inc]["decision_hash"]
                        == by_combo[full]["decision_hash"]
                    ),
                })

    artifact = {
        "benchmark": "bench_scalability",
        "policy": args.policy,
        "seed": args.seed,
        "horizon_hours": horizon / 3600.0,
        "smoke": bool(args.smoke),
        # Underscore keys hold process-local diagnostics (raw decision
        # records, metrics objects); the artifact keeps only plain JSON.
        "cells": [
            {k: v for k, v in cell.items() if not k.startswith("_")}
            for cell in cells
        ],
    }
    out_path = args.output
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {out_path}")

    if decision_mismatch:
        print("FAIL: a decision-identity contract was violated (incremental "
              "vs full plan maintenance, sharded vs single-queue engine, "
              "vectorized vs scalar hot path, or batched vs per-device "
              "decisions — see SHARD IDENTITY / MAINTENANCE DECISION / "
              "VECTORIZED IDENTITY / ASSIGN-BATCH IDENTITY lines above)",
              file=sys.stderr)
        return 2
    if args.check_baseline:
        failures = check_baseline(cells, args.check_baseline, args.max_regression)
        if failures:
            for line in failures:
                print(f"FAIL: {line}", file=sys.stderr)
            return 3
        print(f"baseline check ok ({args.check_baseline})", file=sys.stderr)
    return 0


def check_baseline(
    cells: List[Dict], baseline_path: str, max_regression: float
) -> List[str]:
    """Compare indexed+incremental cells against a committed artifact.

    Returns a list of human-readable failures (empty = pass).  Only cells
    present in both runs are compared; the committed artifact must be
    regenerated when the benchmark hardware changes.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)

    def key(cell: Dict):
        return (cell["devices"], cell["jobs"], cell["path"],
                cell.get("plan_maintenance"), cell.get("num_shards", 1))

    base_cells = {
        key(c): c
        for c in baseline.get("cells", [])
        if "summary" not in c and c.get("checkpoint_interval") is None
        # The checkpointed twin shares its key with the primary cell; if it
        # lands later in the artifact it would overwrite the primary's
        # throughput and silently lower the floor.
    }
    failures: List[str] = []
    compared = 0
    for cell in cells:
        if "summary" in cell:
            continue
        if cell["path"] not in ("indexed", "sharded", "vectorized"):
            continue
        if cell.get("plan_maintenance") != "incremental":
            continue
        if cell.get("checkpoint_interval") is not None:
            # The checkpointed twin shares its baseline key with the
            # primary cell but pays snapshot overhead by design; gating it
            # against the uncheckpointed baseline would be a false alarm.
            continue
        ref = base_cells.get(key(cell))
        if ref is None:
            continue
        compared += 1
        floor = ref["events_per_sec"] * (1.0 - max_regression)
        if cell["events_per_sec"] < floor:
            failures.append(
                f"devices={cell['devices']} jobs={cell['jobs']} "
                f"shards={cell.get('num_shards', 1)}: "
                f"{cell['events_per_sec']:.0f} ev/s < {floor:.0f} "
                f"(baseline {ref['events_per_sec']:.0f}, "
                f"tolerated regression {max_regression:.0%})"
            )
    if compared == 0:
        # A gate that compares nothing must not report success: this
        # happens when the cell shape changed without regenerating the
        # committed baseline (or when no indexed+incremental cell ran).
        failures.append(
            f"no cells matched {baseline_path}; regenerate the baseline "
            "for the current cell shape (the regression gate would "
            "otherwise be a silent no-op)"
        )
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
