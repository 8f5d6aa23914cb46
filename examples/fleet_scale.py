"""Million-device simulation on the fleet engine.

Runs one contended scenario on the fleet engine — a coordinator plus one
device stream over struct-of-arrays device state — and prints how long each
input took to build (capacity, availability, workload), then the run's event
rate and counters.  The fleet engine makes the single-queue reference
engine's decisions bit for bit (add ``--verify`` to prove it — it roughly
doubles the runtime).  For a time split use ``python3 -m bench --trace 1``.

At the default million-device scale this takes a few minutes; use
``--devices 50000`` for a quick look.

Usage::

    PYTHONPATH=src python examples/fleet_scale.py [--devices N]
        [--hours H] [--verify]
"""

from __future__ import annotations

import argparse
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
    t1 = time.perf_counter()
    print(f"  capacity      {t1 - t0:6.2f} s "
          f"({(t1 - t0) / num_devices * 1e6:.2f} us/device)")
    trace = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=horizon), seed=seed + 1
    ).generate(num_devices)
    t2 = time.perf_counter()
    print(f"  availability  {t2 - t1:6.2f} s "
          f"({(t2 - t1) / num_devices * 1e6:.2f} us/device, "
          f"{len(trace):,} sessions)")
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
    t3 = time.perf_counter()
    print(f"  workload      {t3 - t2:6.2f} s ({len(workload)} jobs)")
    print(f"  inputs total  {t3 - t0:6.2f} s")
    return devices, trace, workload


def run_once(devices, trace, workload, horizon: float, seed: int,
             fleet: bool = True):
    policy = make_policy("venn", seed=seed)
    config = SimulationConfig(
        horizon=horizon,
        seed=seed,
        latency=LatencyConfig(),
        max_events=500_000_000,
        vectorized_dispatch=fleet,
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
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--verify", action="store_true",
                        help="also run the single-queue engine and assert "
                             "bit-identical outcomes")
    args = parser.parse_args()

    horizon = args.hours * 3600.0
    devices, trace, workload = build_environment(
        args.devices, args.jobs, horizon, args.seed
    )

    print("\nrunning fleet engine ...")
    sim, metrics, wall = run_once(devices, trace, workload, horizon, args.seed)
    events = sim.events_processed
    print(f"  {events:,} events in {wall:.1f} s "
          f"({events / wall:,.0f} events/s), "
          f"completion rate {metrics.completion_rate:.2f}, "
          f"average JCT {metrics.average_jct / 3600.0:.2f} h")
    print(f"  {metrics.total_checkins:,} check-ins, "
          f"{metrics.total_responses:,} responses, "
          f"{metrics.total_failures:,} failures, "
          f"{metrics.total_aborts:,} aborted rounds")

    if args.verify:
        print("\nverifying against the single-queue engine ...")
        _, single, single_wall = run_once(
            devices, trace, workload, horizon, args.seed, fleet=False
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
