"""Venn's core: scheduling, matching, fairness, baselines and the exact ILP.

This subpackage contains the paper's primary contribution — the
contention-aware Intersection Resource Scheduling heuristic (Algorithm 1),
the resource-aware tier-based device matching (Algorithm 2), the fairness
knob, the dynamic supply estimator — together with the baseline policies the
evaluation compares against and the exact ILP formulation from Appendix B.
"""

from .atom_index import AtomIndex
from .baselines import (
    ClientDrivenRandomPolicy,
    FIFOPolicy,
    JobDrivenRandomPolicy,
    POLICY_NAMES,
    RandomMatchingPolicy,
    SRSFPolicy,
    UniformRandomPolicy,
    make_policy,
)
from .fairness import FairnessController
from .ilp import IRSInstance, IRSSolution, solve_irs_bruteforce, solve_irs_milp
from .irs import GroupAllocation, SchedulingPlan, build_plan
from .job_group import GroupJobEntry, JobGroup, JobGroupRegistry
from .matching import TierDecision, TierMatcher, device_capacity_metric
from .plan_delta import PlanDelta, PlanMaintainer
from .policy import BasePolicy, SchedulingPolicy
from .requirements import (
    COMPUTE_RICH,
    DEFAULT_CATEGORIES,
    GENERAL,
    HIGH_PERFORMANCE,
    MEMORY_RICH,
    AtomSpace,
    EligibilityRequirement,
    compute_signatures,
    signature_of,
)
from .scheduler import PlanMaintenanceProfile, VennScheduler
from .supply import SupplyEstimator
from .types import (
    DeviceProfile,
    JobSpec,
    JobState,
    RequestState,
    ResourceRequest,
)

__all__ = [
    "AtomIndex",
    "AtomSpace",
    "BasePolicy",
    "COMPUTE_RICH",
    "ClientDrivenRandomPolicy",
    "DEFAULT_CATEGORIES",
    "DeviceProfile",
    "EligibilityRequirement",
    "FIFOPolicy",
    "FairnessController",
    "GENERAL",
    "GroupAllocation",
    "GroupJobEntry",
    "HIGH_PERFORMANCE",
    "IRSInstance",
    "IRSSolution",
    "JobDrivenRandomPolicy",
    "JobGroup",
    "JobGroupRegistry",
    "JobSpec",
    "JobState",
    "MEMORY_RICH",
    "PlanDelta",
    "PlanMaintainer",
    "PlanMaintenanceProfile",
    "POLICY_NAMES",
    "RandomMatchingPolicy",
    "RequestState",
    "ResourceRequest",
    "SRSFPolicy",
    "SchedulingPlan",
    "SchedulingPolicy",
    "SupplyEstimator",
    "TierDecision",
    "TierMatcher",
    "UniformRandomPolicy",
    "VennScheduler",
    "build_plan",
    "compute_signatures",
    "device_capacity_metric",
    "make_policy",
    "signature_of",
    "solve_irs_bruteforce",
    "solve_irs_milp",
]
