"""Exact ILP formulation of the IRS problem (paper Appendix B).

Given a *known* sequence of device check-ins (offline information), the
optimal assignment of devices to jobs that minimises the average scheduling
delay can be written as an integer linear program:

* ``x_ij ∈ {0, 1}`` — device ``i`` is assigned to job ``j``;
* every device serves at most one job and only jobs it is eligible for;
* job ``j`` receives exactly ``D_j`` devices;
* job ``j``'s delay is the check-in time of the last device it receives,
  ``T_j = max_i x_ij · t_i``;
* minimise ``(1/m) Σ_j T_j``.

This module solves the ILP with :func:`scipy.optimize.milp` (HiGHS) and also
provides a brute-force solver for tiny instances, used in tests to validate
both the MILP encoding and the Venn heuristic's quality (the heuristic is
never better than the ILP and should stay close on small instances).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class IRSInstance:
    """An offline IRS instance.

    Parameters
    ----------
    arrival_times:
        Check-in time ``t_i`` of each device (length ``q``).
    eligibility:
        Boolean matrix ``e_ij`` of shape ``(q, m)``; ``True`` when device
        ``i`` may serve job ``j``.
    demands:
        Demand ``D_j`` of each job (length ``m``).
    """

    arrival_times: Tuple[float, ...]
    eligibility: Tuple[Tuple[bool, ...], ...]
    demands: Tuple[int, ...]

    def __post_init__(self) -> None:
        q, m = self.num_devices, self.num_jobs
        if len(self.eligibility) != q:
            raise ValueError("eligibility must have one row per device")
        if any(len(row) != m for row in self.eligibility):
            raise ValueError("eligibility rows must have one column per job")
        if any(d <= 0 for d in self.demands):
            raise ValueError("demands must be positive")
        if any(t < 0 for t in self.arrival_times):
            raise ValueError("arrival times must be non-negative")

    @property
    def num_devices(self) -> int:
        return len(self.arrival_times)

    @property
    def num_jobs(self) -> int:
        return len(self.demands)

    @staticmethod
    def build(
        arrival_times: Sequence[float],
        eligibility: Sequence[Sequence[bool]],
        demands: Sequence[int],
    ) -> "IRSInstance":
        return IRSInstance(
            arrival_times=tuple(float(t) for t in arrival_times),
            eligibility=tuple(tuple(bool(v) for v in row) for row in eligibility),
            demands=tuple(int(d) for d in demands),
        )

    def is_feasible_assignment(self, assignment: Dict[int, int]) -> bool:
        """Check a ``device -> job`` mapping against all constraints."""
        counts = [0] * self.num_jobs
        for dev, job in assignment.items():
            if not (0 <= dev < self.num_devices and 0 <= job < self.num_jobs):
                return False
            if not self.eligibility[dev][job]:
                return False
            counts[job] += 1
        return all(c == d for c, d in zip(counts, self.demands))

    def average_delay(self, assignment: Dict[int, int]) -> float:
        """Average scheduling delay of a feasible ``device -> job`` mapping."""
        last: List[float] = [0.0] * self.num_jobs
        for dev, job in assignment.items():
            last[job] = max(last[job], self.arrival_times[dev])
        return float(sum(last) / self.num_jobs)


@dataclass
class IRSSolution:
    """Result of an exact solve."""

    #: Device index -> job index.
    assignment: Dict[int, int]
    #: Optimal average scheduling delay.
    average_delay: float
    #: Per-job delay ``T_j``.
    job_delays: List[float]
    #: Whether the solver proved optimality.
    optimal: bool


def solve_irs_milp(
    instance: IRSInstance, time_limit: Optional[float] = None
) -> IRSSolution:
    """Solve the Appendix-B ILP with HiGHS via :func:`scipy.optimize.milp`."""
    # Imported here: the oracle is the only scipy user on the import path of
    # ``import repro``, and every simulation would pay for it.
    from scipy import optimize, sparse

    q, m = instance.num_devices, instance.num_jobs
    t = np.asarray(instance.arrival_times, dtype=float)
    elig = np.asarray(instance.eligibility, dtype=bool)
    demands = np.asarray(instance.demands, dtype=float)
    if (elig.sum(axis=0) < demands).any():
        raise ValueError("instance is infeasible: a job has too few eligible devices")

    # Variable layout: x_ij for eligible (i, j) pairs, then T_j.
    pairs = [(i, j) for i in range(q) for j in range(m) if elig[i, j]]
    pair_index = {p: k for k, p in enumerate(pairs)}
    n_x = len(pairs)
    n_vars = n_x + m

    c = np.zeros(n_vars)
    c[n_x:] = 1.0 / m  # minimise average of T_j

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    lower: List[float] = []
    upper: List[float] = []
    row = 0

    # (1) Each device serves at most one job: sum_j x_ij <= 1.
    for i in range(q):
        touched = False
        for j in range(m):
            if elig[i, j]:
                rows.append(row)
                cols.append(pair_index[(i, j)])
                vals.append(1.0)
                touched = True
        if touched:
            lower.append(-np.inf)
            upper.append(1.0)
            row += 1

    # (2) Each job receives exactly D_j devices: sum_i x_ij = D_j.
    for j in range(m):
        for i in range(q):
            if elig[i, j]:
                rows.append(row)
                cols.append(pair_index[(i, j)])
                vals.append(1.0)
        lower.append(float(demands[j]))
        upper.append(float(demands[j]))
        row += 1

    # (3) T_j >= t_i * x_ij  <=>  t_i * x_ij - T_j <= 0.
    for (i, j), k in pair_index.items():
        rows.append(row)
        cols.append(k)
        vals.append(float(t[i]))
        rows.append(row)
        cols.append(n_x + j)
        vals.append(-1.0)
        lower.append(-np.inf)
        upper.append(0.0)
        row += 1

    A = sparse.csc_matrix((vals, (rows, cols)), shape=(row, n_vars))
    constraints = optimize.LinearConstraint(A, lower, upper)
    integrality = np.zeros(n_vars)
    integrality[:n_x] = 1
    bounds = optimize.Bounds(
        lb=np.concatenate([np.zeros(n_x), np.zeros(m)]),
        ub=np.concatenate([np.ones(n_x), np.full(m, np.inf)]),
    )
    # HiGHS stops at a 1e-4 relative gap by default; an oracle must prove
    # the optimum, not approach it.
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = optimize.milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options=options,
    )
    if result.x is None:
        raise RuntimeError(f"MILP solver failed: {result.message}")
    x = np.round(result.x[:n_x]).astype(int)
    assignment: Dict[int, int] = {}
    for (i, j), k in pair_index.items():
        if x[k] == 1:
            assignment[i] = j
    job_delays = [0.0] * m
    for i, j in assignment.items():
        job_delays[j] = max(job_delays[j], float(t[i]))
    avg = float(sum(job_delays) / m)
    return IRSSolution(
        assignment=assignment,
        average_delay=avg,
        job_delays=job_delays,
        optimal=bool(result.status == 0),
    )


def solve_irs_bruteforce(instance: IRSInstance) -> IRSSolution:
    """Enumerate all feasible assignments (tiny instances only).

    Complexity is exponential; intended for cross-checking the MILP encoding
    in tests with at most ~10 devices.
    """
    q, m = instance.num_devices, instance.num_jobs
    if q > 12:
        raise ValueError("brute force limited to at most 12 devices")
    t = instance.arrival_times
    elig = instance.eligibility
    demands = list(instance.demands)

    best: Optional[Dict[int, int]] = None
    best_delay = math.inf

    # Option -1 means the device stays unassigned.
    choices: List[List[int]] = [
        [-1] + [j for j in range(m) if elig[i][j]] for i in range(q)
    ]
    for combo in itertools.product(*choices):
        counts = [0] * m
        for j in combo:
            if j >= 0:
                counts[j] += 1
        if counts != demands:
            continue
        assignment = {i: j for i, j in enumerate(combo) if j >= 0}
        delay = instance.average_delay(assignment)
        if delay < best_delay:
            best_delay = delay
            best = assignment
    if best is None:
        raise ValueError("instance is infeasible")
    job_delays = [0.0] * m
    for i, j in best.items():
        job_delays[j] = max(job_delays[j], t[i])
    return IRSSolution(
        assignment=best,
        average_delay=best_delay,
        job_delays=job_delays,
        optimal=True,
    )


__all__ = [
    "IRSInstance",
    "IRSSolution",
    "solve_irs_bruteforce",
    "solve_irs_milp",
]
