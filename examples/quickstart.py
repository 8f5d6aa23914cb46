#!/usr/bin/env python3
"""Quickstart: share one device pool among CL jobs under different schedulers.

Builds a small simulated environment (synthetic device capacity +
availability traces, a workload of CL jobs sampled from the demand trace),
runs it under random matching, FIFO, SRSF and Venn, and prints the average
job completion time (JCT) and its breakdown for each policy.

Run with::

    python examples/quickstart.py [--preset quick|default] [--seed 7]
"""

from __future__ import annotations

import argparse

from repro.analysis.report import format_table
from repro.analysis.stats import summarize_run
from repro.experiments import build_environment, get_config, run_policies

POLICIES = ("random", "fifo", "srsf", "venn")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="quick", choices=["quick", "default"])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    config = get_config(args.preset, seed=args.seed)
    print(
        f"Building environment: {config.num_devices} devices, "
        f"{config.num_jobs} jobs, horizon {config.horizon / 3600:.0f} h"
    )
    env = build_environment(config)
    print(
        f"Workload total demand: {env.workload.total_demand} device-participations; "
        f"{len(env.availability)} availability sessions\n"
    )

    results = run_policies(env, POLICIES)
    baseline = results["random"].average_jct

    rows = []
    for name in POLICIES:
        metrics = results[name]
        summary = summarize_run(metrics)
        rows.append(
            [
                name,
                summary["average_jct"] / 3600.0,
                baseline / max(metrics.average_jct, 1e-9),
                summary["completion_rate"],
                summary["average_scheduling_delay"],
                summary["average_response_time"],
                int(summary["total_aborts"]),
            ]
        )
    print(
        format_table(
            [
                "policy",
                "avg JCT (h)",
                "speed-up vs random",
                "completion rate",
                "avg sched delay (s)",
                "avg response (s)",
                "aborted rounds",
            ],
            rows,
            title="End-to-end comparison of CL resource managers",
        )
    )


if __name__ == "__main__":
    main()
