"""Chaos harness: kill runs at random events, resume, assert identity.

``python -m repro.resilience.chaos`` is the executable form of the
exact-resume contract (``docs/RESILIENCE.md``): for each engine cell — the
single-queue reference and the fleet engine — it

1. runs an uninterrupted *reference* simulation and records its decision
   sequence and metrics digest;
2. samples crash points uniformly over the reference run's event count;
3. for each crash point, runs a twin with periodic checkpointing and
   ``crash_at_event`` set to that event, catches the
   :class:`~repro.resilience.SimulatedCrash`, resumes from the **latest
   checkpoint** (crash cleared, like a restarted process), and asserts the
   resumed run's decision hash and metrics digest are bit-identical to the
   reference.

Any divergence prints the first divergent decision record (index, time,
device, job — both runs' values) and fails the process, which is what the
CI ``chaos-smoke`` job gates on.

The harness lives outside :mod:`repro.resilience`'s ``__init__`` because
it imports the experiment layer (which imports the engine, which imports
the resilience leaf modules) — importing it eagerly would cycle.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from ..core.baselines import make_policy
from ..experiments.config import ExperimentConfig, get_config
from ..experiments.environment import build_environment
from ..sim.engine import Simulator
from .record import RecordingPolicy, format_divergence, metrics_digest
from .snapshot import LatestSnapshotStore, SimulatedCrash


def build_simulator(
    cfg: ExperimentConfig,
    *,
    policy_name: str,
    vectorized: bool,
    crash_at_event: Optional[int] = None,
    checkpoint_interval: Optional[int] = None,
    checkpoint_sink=None,
) -> Simulator:
    """One fully wired simulator for a chaos run.

    The environment (devices, availability, workload) is rebuilt from the
    config's seed each call — bit-identical across calls, like a process
    restart re-reading its inputs.
    """
    sim_cfg = replace(
        cfg.simulation,
        vectorized_dispatch=vectorized,
        crash_at_event=crash_at_event,
        checkpoint_interval=checkpoint_interval,
    )
    env = build_environment(cfg)
    policy = RecordingPolicy(make_policy(policy_name, seed=cfg.seed_for("policy")))
    return Simulator(
        devices=env.devices,
        availability=env.availability,
        workload=env.workload,
        policy=policy,
        config=sim_cfg,
        checkpoint_sink=checkpoint_sink,
    )


def run_mode(
    cfg: ExperimentConfig,
    *,
    policy_name: str,
    vectorized: bool,
    crashes: int,
    checkpoint_every: int,
    rng: np.random.Generator,
    verbose: bool = False,
) -> List[str]:
    """Kill-and-resume one engine cell at ``crashes`` random events.

    Returns a list of failure descriptions (empty = the cell passed).
    """
    reference = build_simulator(
        cfg, policy_name=policy_name, vectorized=vectorized
    )
    label = "fleet" if vectorized else "reference"
    ref_metrics = reference.run()
    ref_decisions = reference.policy.decisions
    ref_digest = metrics_digest(ref_metrics)
    n_events = reference.events_processed
    # Crash strictly inside the run: event 0 has nothing to resume over
    # and a crash at the final event is the uninterrupted run.
    k = min(crashes, max(1, n_events - 1))
    crash_points = sorted(
        (rng.choice(n_events - 1, size=k, replace=False) + 1).tolist()
    )
    failures: List[str] = []
    for at_event in crash_points:
        store = LatestSnapshotStore()
        sim = build_simulator(
            cfg,
            policy_name=policy_name,
            vectorized=vectorized,
            crash_at_event=at_event,
            checkpoint_interval=checkpoint_every,
            checkpoint_sink=store,
        )
        # A crash before the first periodic checkpoint restarts from the
        # pre-run snapshot — the "no checkpoint yet" recovery path.
        snapshot = sim.snapshot()
        try:
            sim.run()
            failures.append(
                f"[{label}] crash at event {at_event} never fired "
                f"(run finished after {sim.events_processed} events)"
            )
            continue
        except SimulatedCrash:
            pass
        if store.latest is not None:
            snapshot = store.latest
        resumed = Simulator.resume(snapshot, crash_at_event=None)
        res_metrics = resumed.run()
        problems = []
        if resumed.policy.decisions != ref_decisions:
            problems.append(
                format_divergence(
                    ref_decisions,
                    resumed.policy.decisions,
                    label_a="uninterrupted",
                    label_b="resumed",
                )
            )
        if metrics_digest(res_metrics) != ref_digest:
            problems.append(
                f"metrics digest diverged: uninterrupted={ref_digest} "
                f"resumed={metrics_digest(res_metrics)}"
            )
        if problems:
            failures.append(
                f"[{label}] crash at event {at_event} "
                f"(resumed from event {snapshot.events_processed}): "
                + "; ".join(problems)
            )
        elif verbose:
            print(
                f"  {label}: crash@{at_event} -> resume@"
                f"{snapshot.events_processed} OK"
            )
    status = "FAIL" if failures else "ok"
    print(
        f"{label}: {k} kill-and-resume runs over {n_events} events "
        f"({len(failures)} divergent) {status}"
    )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Crash the simulator at random events, resume from the latest "
            "checkpoint and assert bit-identical decisions and metrics."
        )
    )
    parser.add_argument(
        "--crashes",
        type=int,
        default=20,
        help="crash points sampled per engine cell (default 20)",
    )
    parser.add_argument(
        "--modes",
        default="scalar,vectorized",
        help="comma-separated engine cells: scalar (the single-queue "
        "reference), vectorized (the fleet engine), or both (default both)",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=("quick", "default", "large"),
        help="experiment preset sizing the environment (default quick)",
    )
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument(
        "--crash-seed",
        type=int,
        default=2024,
        help="seed of the crash-point sampler (decoupled from --seed)",
    )
    parser.add_argument("--policy", default="venn")
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=500,
        help="periodic checkpoint interval in events (default 500)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    unknown = set(modes) - {"scalar", "vectorized"}
    if unknown or not modes:
        parser.error("--modes takes 'scalar' and/or 'vectorized'")

    cfg = get_config(args.preset, seed=args.seed)
    rng = np.random.default_rng(args.crash_seed)
    t0 = time.perf_counter()
    failures: List[str] = []
    for fleet in sorted({mode == "vectorized" for mode in modes}):
        failures.extend(
            run_mode(
                cfg,
                policy_name=args.policy,
                vectorized=fleet,
                crashes=args.crashes,
                checkpoint_every=args.checkpoint_every,
                rng=rng,
                verbose=args.verbose,
            )
        )
    elapsed = time.perf_counter() - t0
    if failures:
        print(f"\nchaos: {len(failures)} divergent resume(s) in {elapsed:.1f}s")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"chaos: all kill-and-resume runs bit-identical ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
