#!/usr/bin/env python3
"""Write and evaluate a custom scheduling policy against Venn.

The resource manager's policy interface
(:class:`repro.core.policy.SchedulingPolicy`) is deliberately small: register
jobs and requests, and answer "which open request should this checked-in
device serve?" (devices are named by id; the engine binds the population and
its eligibility signatures to the policy before the run).  This example implements a simple *least-progress-first*
policy (devices go to the job that has completed the smallest fraction of its
rounds) and compares it with the built-in policies on the quick workload.

Run with::

    python examples/custom_policy.py
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.report import format_table
from repro.core.baselines import make_policy
from repro.core.policy import BasePolicy
from repro.core.types import ResourceRequest
from repro.experiments import build_environment, get_config
from repro.sim.engine import Simulator


class LeastProgressFirstPolicy(BasePolicy):
    """Offer each device to the eligible job with the least round progress."""

    name = "least_progress"

    def _progress(self, job_id: int) -> float:
        job = self.jobs[job_id]
        done = self.rounds_completed.get(job_id, 0)
        return done / max(1, job.num_rounds)

    def assign(self, device_id: int, now: float) -> Optional[ResourceRequest]:
        candidates = self.eligible_open_requests(device_id)
        if not candidates:
            return None
        candidates.sort(key=lambda r: (self._progress(r.job_id), r.job_id))
        return candidates[0]


def main() -> None:
    config = get_config("quick", seed=11)
    env = build_environment(config)

    policies = {
        "random": make_policy("random", seed=1),
        "srsf": make_policy("srsf"),
        "venn": make_policy("venn", seed=1),
        "least_progress (custom)": LeastProgressFirstPolicy(),
    }

    rows = []
    baseline_jct = None
    for label, policy in policies.items():
        sim = Simulator(
            devices=env.devices,
            availability=env.availability,
            workload=env.workload,
            policy=policy,
            config=config.simulation,
        )
        metrics = sim.run()
        if baseline_jct is None:
            baseline_jct = metrics.average_jct
        rows.append(
            [
                label,
                metrics.average_jct / 3600.0,
                baseline_jct / max(metrics.average_jct, 1e-9),
                metrics.completion_rate,
            ]
        )
    print(
        format_table(
            ["policy", "avg JCT (h)", "speed-up vs random", "completion rate"],
            rows,
            title="Custom policy vs the built-in schedulers",
        )
    )


if __name__ == "__main__":
    main()
