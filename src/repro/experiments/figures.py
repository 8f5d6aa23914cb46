"""Characterisation and micro experiments: Figures 2, 3, 8 and 10.

* **Figure 2a** — diurnal device availability over the trace horizon.
* **Figure 2b** — CPU/memory heterogeneity and the fraction of devices able
  to run each of the three example on-device models.
* **Figure 3**  — the toy example comparing Random, SRSF, Venn's order and
  the exact optimum on three jobs (Keyboard×3, Emoji×4, Emoji×4) with devices
  checking in at a constant rate, half of them Emoji-eligible.
* **Figure 8**  — the device-eligibility regions and the job demand trace the
  workloads are sampled from.
* **Figure 10** — scheduler overhead: wall-clock latency of one scheduling
  (plan rebuild) invocation as the number of jobs / job groups grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ilp import IRSInstance, solve_irs_milp
from ..core.irs import build_plan
from ..core.job_group import JobGroupRegistry
from ..core.requirements import (
    AtomSpace,
    EligibilityRequirement,
    compute_signatures,
    signature_of,
)
from ..core.scheduler import VennScheduler
from ..core.types import DeviceProfile, JobSpec, ResourceRequest
from ..traces.capacity import CapacitySampler, MODEL_REQUIREMENTS
from ..traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig
from ..traces.job_trace import JobTraceGenerator
from .config import ExperimentConfig, default_config


# --------------------------------------------------------------------------- #
# Figure 2 / Figure 8: trace characterisation
# --------------------------------------------------------------------------- #
def figure2a_availability_curve(
    num_devices: int = 2000,
    config: Optional[DiurnalConfig] = None,
    seed: int = 3,
    resolution: float = 1800.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """(times, fraction of devices online): the diurnal availability curve."""
    model = DiurnalAvailabilityModel(config, seed=seed)
    trace = model.generate(num_devices)
    times, counts = trace.availability_curve(resolution=resolution)
    return times, counts / num_devices


def figure2b_capacity_heterogeneity(
    num_devices: int = 2000, seed: int = 3
) -> Dict[str, float]:
    """Fraction of devices qualified for each of the Figure-2b models."""
    sampler = CapacitySampler(seed=seed)
    devices = sampler.sample_devices(num_devices)
    return sampler.model_eligibility_shares(devices)


def figure8a_category_shares(
    num_devices: int = 2000, seed: int = 3
) -> Dict[str, float]:
    """Fraction of devices eligible for each of the four categories."""
    sampler = CapacitySampler(seed=seed)
    devices = sampler.sample_devices(num_devices)
    return sampler.category_shares(devices)


def figure8b_job_demand_stats(num_jobs: int = 400, seed: int = 3) -> Dict[str, float]:
    """Summary statistics of the job demand trace (rounds and participants)."""
    trace = JobTraceGenerator(seed=seed).generate(num_jobs)
    rounds = np.array([e.num_rounds for e in trace.entries])
    demand = np.array([e.demand_per_round for e in trace.entries])
    return {
        "mean_rounds": float(rounds.mean()),
        "max_rounds": float(rounds.max()),
        "mean_participants": float(demand.mean()),
        "max_participants": float(demand.max()),
        "mean_total_demand": trace.mean_total_demand,
    }


# --------------------------------------------------------------------------- #
# Figure 3: the toy example
# --------------------------------------------------------------------------- #
@dataclass
class ToyExampleResult:
    """Average scheduling delay of each strategy on the Figure-3 toy example."""

    random_jct: float
    srsf_jct: float
    venn_jct: float
    optimal_jct: float


#: Requirements of the toy example: the Keyboard job may use any device, the
#: Emoji jobs only devices holding emoji data (50 % of check-ins).
_TOY_KEYBOARD = EligibilityRequirement("keyboard_any")
_TOY_EMOJI = EligibilityRequirement("emoji_only", data_domain="emoji")

#: Job demands of the toy example: (job name, requirement, demand).
_TOY_JOBS: Sequence[Tuple[str, EligibilityRequirement, int]] = (
    ("keyboard", _TOY_KEYBOARD, 3),
    ("emoji-1", _TOY_EMOJI, 4),
    ("emoji-2", _TOY_EMOJI, 4),
)


def _toy_devices(num_devices: int = 24) -> List[DeviceProfile]:
    """Devices checking in at times 1, 2, 3, ...; odd check-ins hold emoji data."""
    devices = []
    for i in range(num_devices):
        has_emoji = i % 2 == 0  # check-in times are i + 1, so odd times
        devices.append(
            DeviceProfile(
                device_id=i,
                cpu_score=0.5,
                memory_score=0.5,
                data_domains=frozenset({"emoji"}) if has_emoji else frozenset(),
            )
        )
    return devices


def _toy_instance(num_devices: int = 24) -> Tuple[IRSInstance, List[DeviceProfile]]:
    devices = _toy_devices(num_devices)
    arrival_times = [float(i + 1) for i in range(num_devices)]
    eligibility = [
        [req.is_eligible(d) for (_, req, _) in _TOY_JOBS] for d in devices
    ]
    demands = [demand for (_, _, demand) in _TOY_JOBS]
    return IRSInstance.build(arrival_times, eligibility, demands), devices


def _simulate_fixed_order(
    instance: IRSInstance, order: Sequence[int]
) -> float:
    """Assign each arriving device to the first eligible job in ``order``."""
    remaining = list(instance.demands)
    delays = [0.0] * instance.num_jobs
    for i, t in enumerate(instance.arrival_times):
        for j in order:
            if remaining[j] > 0 and instance.eligibility[i][j]:
                remaining[j] -= 1
                delays[j] = max(delays[j], t)
                break
        if all(r == 0 for r in remaining):
            break
    if any(r > 0 for r in remaining):
        raise ValueError("not enough devices to satisfy all jobs")
    return float(np.mean(delays))


def _simulate_random(instance: IRSInstance, trials: int = 500, seed: int = 0) -> float:
    """Expected average delay of uniform random matching."""
    rng = np.random.default_rng(seed)
    totals = []
    for _ in range(trials):
        remaining = list(instance.demands)
        delays = [0.0] * instance.num_jobs
        for i, t in enumerate(instance.arrival_times):
            options = [
                j
                for j in range(instance.num_jobs)
                if remaining[j] > 0 and instance.eligibility[i][j]
            ]
            if not options:
                continue
            j = int(rng.choice(options))
            remaining[j] -= 1
            delays[j] = max(delays[j], t)
            if all(r == 0 for r in remaining):
                break
        if any(r > 0 for r in remaining):
            continue
        totals.append(float(np.mean(delays)))
    return float(np.mean(totals))


def _venn_order_for_toy(devices: Sequence[DeviceProfile]) -> List[int]:
    """Derive the Venn scheduling order for the toy example via Algorithm 1."""
    requirements = [_TOY_KEYBOARD, _TOY_EMOJI]
    space = AtomSpace(requirements)
    registry = JobGroupRegistry()
    for idx, (name, req, demand) in enumerate(_TOY_JOBS):
        registry.upsert_job(idx, req, remaining_demand=demand)
    # Supply rates: one device per time unit, half of them emoji-eligible.
    rates = {}
    for d in devices:
        sig = signature_of(d, requirements)
        space.observe_signature(sig)
        rates[sig] = rates.get(sig, 0.0) + 1.0 / len(devices)
    plan = build_plan(registry.groups(), space, rates)
    # Flatten: devices of each signature consult the plan; for a global order
    # comparison we interleave by the per-atom preference of the emoji atom
    # (the contended one) followed by the keyboard-only atom.
    order: List[int] = []
    for key in plan.group_order:
        order.extend(plan.job_order[key])
    return order


def figure3_toy_example(num_devices: int = 24, seed: int = 0) -> ToyExampleResult:
    """Reproduce the Figure-3 comparison on the toy example.

    The paper reports average JCTs of 12 (random), 11 (SRSF) and 9.3
    (optimal); Venn's order matches the optimum on this instance.
    """
    instance, devices = _toy_instance(num_devices)
    # SRSF: smallest total demand first (Keyboard 3, then the two Emoji jobs).
    srsf_order = sorted(range(instance.num_jobs), key=lambda j: instance.demands[j])
    venn_order = _venn_order_for_toy(devices)
    optimal = solve_irs_milp(instance)
    return ToyExampleResult(
        random_jct=_simulate_random(instance, seed=seed),
        srsf_jct=_simulate_fixed_order(instance, srsf_order),
        venn_jct=_simulate_fixed_order(instance, venn_order),
        optimal_jct=optimal.average_delay,
    )


# --------------------------------------------------------------------------- #
# Figure 10: scheduler overhead
# --------------------------------------------------------------------------- #
def build_loaded_scheduler(
    num_jobs: int, num_groups: int, seed: int = 0
) -> VennScheduler:
    """A Venn scheduler loaded with ``num_jobs`` jobs over ``num_groups`` groups.

    Used by the Figure-10 overhead study and its pytest benchmark: the cost of
    one ``rebuild_plan`` call is the scheduling+matching trigger latency the
    paper reports.
    """
    rng = np.random.default_rng(seed)
    scheduler = VennScheduler(seed=seed)
    requirements = [
        EligibilityRequirement(
            f"group_{g}",
            min_cpu=float(g % 10) / 10.0,
            min_memory=float((g // 10) % 10) / 10.0,
        )
        for g in range(num_groups)
    ]
    for j in range(num_jobs):
        req = requirements[j % num_groups]
        job = JobSpec(
            job_id=j,
            requirement=req,
            demand_per_round=int(rng.integers(10, 200)),
            num_rounds=int(rng.integers(2, 50)),
            arrival_time=0.0,
        )
        scheduler.on_job_arrival(job, now=0.0)
        request = ResourceRequest(
            request_id=j,
            job_id=j,
            demand=job.demand_per_round,
            submit_time=0.0,
            deadline=600.0,
            min_reports=job.min_reports,
        )
        scheduler.on_request_open(request, now=0.0)
    # Seed the supply estimator with some observed check-ins.
    fleet = CapacitySampler(seed=seed).sample_devices(200)
    scheduler.bind_fleet(fleet, *compute_signatures(fleet, requirements))
    for device_id in fleet.device_id.tolist():
        scheduler.on_device_checkin(device_id, now=1.0)
    return scheduler


def figure10_overhead(
    job_counts: Sequence[int] = (100, 500, 1000),
    group_counts: Sequence[int] = (20, 60, 100),
    repeats: int = 5,
) -> Dict[Tuple[int, int], float]:
    """Median latency (milliseconds) of one scheduling invocation."""
    out: Dict[Tuple[int, int], float] = {}
    for m in job_counts:
        for n in group_counts:
            scheduler = build_loaded_scheduler(m, n)
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                scheduler.rebuild_plan(now=10.0)
                samples.append((time.perf_counter() - start) * 1000.0)
            out[(m, n)] = float(np.median(samples))
    return out


__all__ = [
    "ToyExampleResult",
    "build_loaded_scheduler",
    "figure10_overhead",
    "figure2a_availability_curve",
    "figure2b_capacity_heterogeneity",
    "figure3_toy_example",
    "figure8a_category_shares",
    "figure8b_job_demand_stats",
]
