"""Device eligibility requirements and the eligibility-atom abstraction.

A CL job states *which* devices it can use (minimum hardware capacity,
required data domain, ...).  Different jobs' eligible sets may overlap,
contain, or be disjoint from each other — the Intersection Resource
Scheduling (IRS) problem of the paper is about allocating devices across job
groups with exactly these relationships.

To reason about those relationships without enumerating devices, the library
works with *eligibility atoms*: an atom is the set of requirements a device
satisfies (its *signature*).  Every requirement's eligible set is then a
union of atoms, and set algebra between requirements reduces to set algebra
over small frozensets of requirement names.  This is what keeps Algorithm 1
independent of the number of devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .types import DeviceFleet, DeviceProfile

#: An atom signature: the (frozen) set of requirement names a device satisfies.
AtomSignature = FrozenSet[str]


@dataclass(frozen=True)
class EligibilityRequirement:
    """A job's device requirement.

    A device is eligible when its normalised CPU and memory scores are at
    least ``min_cpu`` / ``min_memory`` and, when ``data_domain`` is set, the
    device holds that data domain.

    The four categories used throughout the paper's evaluation (Figure 8a)
    are exposed as :data:`GENERAL`, :data:`COMPUTE_RICH`, :data:`MEMORY_RICH`
    and :data:`HIGH_PERFORMANCE`.
    """

    name: str
    min_cpu: float = 0.0
    min_memory: float = 0.0
    data_domain: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("requirement name must be non-empty")
        if not (0.0 <= self.min_cpu <= 1.0):
            raise ValueError(f"min_cpu must be in [0, 1], got {self.min_cpu}")
        if not (0.0 <= self.min_memory <= 1.0):
            raise ValueError(f"min_memory must be in [0, 1], got {self.min_memory}")

    def is_eligible(self, device: DeviceProfile) -> bool:
        """Return True when ``device`` satisfies this requirement."""
        if device.cpu_score < self.min_cpu:
            return False
        if device.memory_score < self.min_memory:
            return False
        if self.data_domain is not None and self.data_domain not in device.data_domains:
            return False
        return True


#: The default requirement categories from Figure 8a of the paper.  The 0.5
#: cut-offs stratify the normalised AI-Benchmark-style scores into four
#: regions: General (everything), Compute-Rich, Memory-Rich and
#: High-Performance (the intersection of the previous two).
GENERAL = EligibilityRequirement("general", min_cpu=0.0, min_memory=0.0)
COMPUTE_RICH = EligibilityRequirement("compute_rich", min_cpu=0.5, min_memory=0.0)
MEMORY_RICH = EligibilityRequirement("memory_rich", min_cpu=0.0, min_memory=0.5)
HIGH_PERFORMANCE = EligibilityRequirement(
    "high_performance", min_cpu=0.5, min_memory=0.5
)

#: Categories in the order used by the evaluation tables.
DEFAULT_CATEGORIES: Sequence[EligibilityRequirement] = (
    GENERAL,
    COMPUTE_RICH,
    MEMORY_RICH,
    HIGH_PERFORMANCE,
)


def signature_of(
    device: DeviceProfile, requirements: Iterable[EligibilityRequirement]
) -> AtomSignature:
    """Compute the atom signature of ``device`` w.r.t. ``requirements``."""
    return frozenset(r.name for r in requirements if r.is_eligible(device))


def compute_signatures(
    devices: Sequence[DeviceProfile],
    requirements: Sequence[EligibilityRequirement],
) -> Tuple[np.ndarray, List[AtomSignature]]:
    """Eligibility signature of every device, vectorised when possible.

    Returns ``(sig_ids, table)``: ``table[sig_ids[i]]`` is exactly what
    :func:`signature_of` gives for ``devices[i]``, and ``table`` holds each
    distinct signature once (:func:`intern_signatures`) — the pair a policy
    is bound with (:meth:`~repro.core.policy.SchedulingPolicy.bind_fleet`).
    The vectorised path takes a handful of numpy passes over the fleet's
    columns (:class:`~repro.core.types.DeviceFleet`; any other sequence is
    converted first) instead of ``len(devices) × len(requirements)``
    predicate calls: one boolean mask per requirement over the cpu and
    memory columns and the domain-id column, packed into per-device
    bitmasks, and one frozenset per distinct bitmask.

    Subclassed requirements (anything overriding ``is_eligible``) fall back
    to the exact per-device loop.
    """
    reqs = list(requirements)
    devices = DeviceFleet.of(devices)
    n = len(devices)
    if not reqs:
        return np.zeros(n, dtype=np.int32), [frozenset()]
    if len(reqs) > 63 or any(
        type(r) is not EligibilityRequirement for r in reqs
    ):
        # The vectorised path packs one requirement per int64 bit; beyond
        # 63 the shift overflows silently.  Workloads that large fall back
        # to the exact per-device walk.
        return intern_signatures([signature_of(d, reqs) for d in devices])
    cpu, mem = devices.cpu_score, devices.memory_score
    domain_masks: Dict[str, np.ndarray] = {}
    for r in reqs:
        if r.data_domain is not None and r.data_domain not in domain_masks:
            dom = r.data_domain
            holds = np.array([dom in d for d in devices.domains], dtype=bool)
            domain_masks[dom] = holds[devices.domain_id]
    bits = np.zeros(n, dtype=np.int64)
    for k, r in enumerate(reqs):
        ok = (cpu >= r.min_cpu) & (mem >= r.min_memory)
        if r.data_domain is not None:
            ok = ok & domain_masks[r.data_domain]
        bits |= ok.astype(np.int64) << k
    # Devices overwhelmingly share a handful of distinct bitmasks.  Two
    # bitmasks can still name equal sets (requirements sharing a name), so
    # the per-mask signatures are interned by value too.
    masks, inverse = np.unique(bits, return_inverse=True)
    mask_ids, table = intern_signatures(
        [
            frozenset(reqs[k].name for k in range(len(reqs)) if (m >> k) & 1)
            for m in masks.tolist()
        ]
    )
    return mask_ids[inverse], table


def intern_signatures(
    signatures: Sequence[AtomSignature],
) -> Tuple[np.ndarray, List[AtomSignature]]:
    """``(ids, table)`` with ``table[ids[i]] == signatures[i]``, each
    distinct value once, in first-occurrence order."""
    index: Dict[AtomSignature, int] = {}
    table: List[AtomSignature] = []
    ids = np.empty(len(signatures), dtype=np.int32)
    for i, sig in enumerate(signatures):
        j = index.get(sig)
        if j is None:
            j = index[sig] = len(table)
            table.append(sig)
        ids[i] = j
    return ids, table


def atom_sort_key(signature: AtomSignature) -> tuple:
    """Canonical ordering key for atom signatures.

    Frozensets iterate in hash order, which varies with ``PYTHONHASHSEED``
    between interpreter invocations.  Anywhere a *collection of signatures*
    is iterated to accumulate floats or build ordered output must sort by
    this key first, or two runs of the same seed can diverge bit-for-bit
    (float addition is not associative).  Sorting by (size, sorted names)
    keeps the order stable and cheap to reason about.
    """
    return (len(signature), tuple(sorted(signature)))


def sorted_atoms(signatures: Iterable[AtomSignature]) -> list:
    """Signatures in canonical :func:`atom_sort_key` order."""
    return sorted(signatures, key=atom_sort_key)


class AtomSpace:
    """The set of eligibility atoms induced by a collection of requirements.

    The atom space answers two questions that Algorithm 1 needs:

    * which atoms make up a requirement's eligible set, and
    * how requirements relate (intersect / contain) via those atoms.

    It is built from the requirement definitions alone (no devices needed) by
    enumerating the corner points of the threshold grid, optionally augmented
    with the signatures actually observed from checked-in devices (useful
    when devices carry data domains the grid cannot anticipate).
    """

    def __init__(self, requirements: Iterable[EligibilityRequirement]):
        reqs = list(requirements)
        names = [r.name for r in reqs]
        if len(set(names)) != len(names):
            raise ValueError("requirement names must be unique")
        self._requirements: Dict[str, EligibilityRequirement] = {
            r.name: r for r in reqs
        }
        self._atoms: set = set()
        self._enumerate_grid_atoms()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _enumerate_grid_atoms(self) -> None:
        """Enumerate signatures reachable on the threshold grid.

        We take representative CPU / memory scores on each side of every
        threshold and every relevant data-domain combination, compute the
        signature of each representative, and keep the distinct results.
        """
        reqs = list(self._requirements.values())
        cpu_cuts = sorted({r.min_cpu for r in reqs} | {0.0})
        mem_cuts = sorted({r.min_memory for r in reqs} | {0.0})
        domains = sorted({r.data_domain for r in reqs if r.data_domain is not None})

        cpu_points = _representative_points(cpu_cuts)
        mem_points = _representative_points(mem_cuts)
        # Domain combinations: none, each single domain and all domains.  This
        # covers every distinct signature because domain predicates are
        # independent "has domain d" checks.
        domain_sets: List[frozenset] = [frozenset()]
        domain_sets.extend(frozenset({d}) for d in domains)
        if len(domains) > 1:
            domain_sets.append(frozenset(domains))

        for cpu in cpu_points:
            for mem in mem_points:
                for doms in domain_sets:
                    dev = DeviceProfile(
                        device_id=-1,
                        cpu_score=cpu,
                        memory_score=mem,
                        data_domains=doms,
                    )
                    self._atoms.add(signature_of(dev, reqs))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def requirements(self) -> Mapping[str, EligibilityRequirement]:
        return dict(self._requirements)

    @property
    def requirement_names(self):
        """The requirement-name set (a live view; cheap, no copy)."""
        return self._requirements.keys()

    @property
    def atoms(self) -> FrozenSet[AtomSignature]:
        """All known atom signatures (including the empty signature)."""
        return frozenset(self._atoms)

    def observe_signature(self, signature: AtomSignature) -> None:
        """Register a signature seen on a live device check-in."""
        unknown = set(signature) - set(self._requirements)
        if unknown:
            raise KeyError(f"signature references unknown requirements: {unknown}")
        self._atoms.add(frozenset(signature))

    def eligible_atoms(self, requirement_name: str) -> FrozenSet[AtomSignature]:
        """Atoms making up the eligible set of ``requirement_name``."""
        if requirement_name not in self._requirements:
            raise KeyError(f"unknown requirement: {requirement_name}")
        return frozenset(
            a for a in self._atoms if requirement_name in a
        )


def _representative_points(cuts: Sequence[float]) -> List[float]:
    """Representative scores covering every interval induced by ``cuts``.

    For thresholds ``[0, 0.5]`` this yields a point below 0.5 and a point at
    or above 0.5 so that both sides of the cut are represented.
    """
    cuts = sorted(set(cuts))
    points: List[float] = []
    for i, c in enumerate(cuts):
        upper = cuts[i + 1] if i + 1 < len(cuts) else 1.0
        # A point in [c, upper): satisfied exactly by thresholds <= c.
        points.append(min(1.0, (c + upper) / 2.0 if upper > c else c))
    if not points:
        points = [0.0]
    return points


__all__ = [
    "AtomSignature",
    "AtomSpace",
    "COMPUTE_RICH",
    "DEFAULT_CATEGORIES",
    "EligibilityRequirement",
    "GENERAL",
    "HIGH_PERFORMANCE",
    "MEMORY_RICH",
    "atom_sort_key",
    "compute_signatures",
    "intern_signatures",
    "signature_of",
    "sorted_atoms",
]
