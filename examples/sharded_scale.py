"""Million-device simulation on the fleet engine.

Runs one contended scenario on the fleet engine — a coordinator plus
``num_shards=os.cpu_count()`` device shards over struct-of-arrays device
state — and prints the per-shard event counts.  The fleet engine makes
bit-identical decisions for any shard count (add ``--verify`` to prove it
against the single-queue reference engine — it roughly doubles the
runtime).  For a time split use ``python3 -m bench --trace 1``.

At the default million-device scale this takes a few minutes; use
``--devices 50000`` for a quick look.

Usage::

    PYTHONPATH=src python examples/sharded_scale.py [--devices N]
        [--num-shards K] [--hours H] [--verify]
"""

from __future__ import annotations

import argparse
import os
import time

from repro.core.baselines import make_policy
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.latency import LatencyConfig
from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig
from repro.traces.workloads import WorkloadConfig, WorkloadGenerator


def build_environment(num_devices: int, num_jobs: int, horizon: float,
                      seed: int):
    print(f"building environment: {num_devices:,} devices, {num_jobs} jobs ...")
    t0 = time.perf_counter()
    devices = CapacitySampler(seed=seed).sample_devices(num_devices)
    trace = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=horizon), seed=seed + 1
    ).generate(num_devices)
    workload = WorkloadGenerator(
        WorkloadConfig(
            num_jobs=num_jobs,
            demand_scale=0.5,
            min_demand=5,
            max_demand=max(10, num_devices // 10),
            rounds_scale=0.5,
            max_rounds=25,
            mean_interarrival=max(60.0, horizon / (2.0 * num_jobs)),
        ),
        seed=seed + 2,
    ).generate()
    print(f"  environment ready in {time.perf_counter() - t0:.1f} s "
          f"({len(trace):,} availability sessions)")
    return devices, trace, workload


def run_once(devices, trace, workload, horizon: float, seed: int,
             num_shards: int, fleet: bool = True):
    policy = make_policy("venn", seed=seed)
    config = SimulationConfig(
        horizon=horizon,
        seed=seed,
        latency=LatencyConfig(),
        max_events=500_000_000,
        num_shards=num_shards,
        vectorized_dispatch=fleet,  # one shard is the fleet engine too
    )
    sim = Simulator(devices, trace, workload, policy, config)
    t0 = time.perf_counter()
    metrics = sim.run()
    wall = time.perf_counter() - t0
    return sim, metrics, wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=1_000_000)
    parser.add_argument("--jobs", type=int, default=50)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--num-shards", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="device shards (default: one per CPU core)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--verify", action="store_true",
                        help="also run the single-queue engine and assert "
                             "bit-identical outcomes")
    args = parser.parse_args()

    horizon = args.hours * 3600.0
    devices, trace, workload = build_environment(
        args.devices, args.jobs, horizon, args.seed
    )

    print(f"\nrunning fleet engine with num_shards={args.num_shards} ...")
    sim, metrics, wall = run_once(
        devices, trace, workload, horizon, args.seed, args.num_shards
    )
    events = sim.events_processed
    print(f"  {events:,} events in {wall:.1f} s "
          f"({events / wall:,.0f} events/s), "
          f"completion rate {metrics.completion_rate:.2f}, "
          f"average JCT {metrics.average_jct / 3600.0:.2f} h")

    print("\nper-shard counters:")
    print(f"  {'shard':>5} {'devices':>9} {'events':>10} "
          f"{'checkins':>9} {'responses':>9} {'assignments':>11} "
          f"{'plan ver':>8}")
    for s in sim.shard_stats():
        print(f"  {s['shard']:>5} {s['devices']:>9,} "
              f"{s['events_processed']:>10,} {s['checkins']:>9,} "
              f"{s['responses']:>9,} {s['assignments_received']:>11,} "
              f"{str(s['last_plan_version']):>8}")

    if args.verify:
        print("\nverifying against the single-queue engine ...")
        _, single, single_wall = run_once(
            devices, trace, workload, horizon, args.seed, 1, fleet=False
        )
        identical = (
            single.total_checkins == metrics.total_checkins
            and single.total_responses == metrics.total_responses
            and single.total_failures == metrics.total_failures
            and single.total_aborts == metrics.total_aborts
            and {j: m.jct for j, m in single.jobs.items()}
            == {j: m.jct for j, m in metrics.jobs.items()}
        )
        print(f"  single-queue engine: {events / single_wall:,.0f} events/s "
              f"({single_wall:.1f} s); outcomes identical: {identical}")
        if not identical:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
