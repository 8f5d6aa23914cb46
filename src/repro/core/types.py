"""Core data types shared across the Venn reproduction.

The vocabulary follows the paper (Liu et al., MLSys 2025):

* A :class:`DeviceProfile` is an edge device with normalised hardware scores,
  a relative execution-speed factor, optional data-domain tags and a
  reliability (probability of successfully completing an assigned task).
* A :class:`DeviceFleet` is a device population held as columns, the one
  population representation; it hands out ``DeviceProfile`` views on demand.
* An :class:`EligibilityRequirement` (see :mod:`repro.core.requirements`)
  describes which devices a job may use.
* A :class:`JobSpec` is a CL job: an eligibility requirement, a per-round
  participant demand, a number of rounds and per-round deadline parameters.
* A :class:`ResourceRequest` is one round's resource demand submitted to the
  resource manager (step 0 in Figure 6 of the paper).

All objects are plain dataclasses so they can be constructed directly by
users of the library, serialised easily, and used as stable keys where
hashable.
"""

from __future__ import annotations

import enum
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np


class RequestState(enum.Enum):
    """Lifecycle of a single round's resource request."""

    #: Submitted to the resource manager, still acquiring devices.
    PENDING = "pending"
    #: All ``demand`` devices have been assigned; waiting for responses.
    COLLECTING = "collecting"
    #: Enough responses arrived before the deadline; the round succeeded.
    COMPLETED = "completed"
    #: The deadline passed before enough responses arrived.
    ABORTED = "aborted"
    #: The owning job was cancelled / removed.
    CANCELLED = "cancelled"


class JobState(enum.Enum):
    """Lifecycle of a CL job inside the simulator / resource manager."""

    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    CANCELLED = "cancelled"


@dataclass(frozen=True, slots=True)
class DeviceProfile:
    """A single edge device.

    Parameters
    ----------
    device_id:
        Unique integer identifier.
    cpu_score:
        Normalised CPU capability in ``[0, 1]`` (Figure 2b / 8a of the paper).
    memory_score:
        Normalised memory capability in ``[0, 1]``.
    speed_factor:
        Multiplier applied to the base on-device computation time of a task.
        ``1.0`` is the population median; smaller is faster.  Derived from the
        hardware scores by the capacity sampler.
    data_domains:
        Data domains present on the device (e.g. ``{"keyboard", "emoji"}``),
        stored as a ``frozenset`` whatever iterable is given.  A job whose
        requirement names a domain can only use devices that hold that
        domain.
    reliability:
        Probability that the device completes an assigned task instead of
        dropping out mid-round (battery, connectivity, ...).
    """

    device_id: int
    cpu_score: float
    memory_score: float
    speed_factor: float = 1.0
    data_domains: frozenset = frozenset()
    reliability: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.cpu_score <= 1.0):
            raise ValueError(f"cpu_score must be in [0, 1], got {self.cpu_score}")
        if not (0.0 <= self.memory_score <= 1.0):
            raise ValueError(
                f"memory_score must be in [0, 1], got {self.memory_score}"
            )
        # ``nan <= 0`` is false: a bare sign test would let NaN through.
        if not (math.isfinite(self.speed_factor) and self.speed_factor > 0):
            raise ValueError(
                f"speed_factor must be finite and positive, got {self.speed_factor}"
            )
        if not (0.0 <= self.reliability <= 1.0):
            raise ValueError(f"reliability must be in [0, 1], got {self.reliability}")
        if not isinstance(self.data_domains, frozenset):
            # A mutable set would make the frozen profile unhashable.
            object.__setattr__(self, "data_domains", frozenset(self.data_domains))


#: ``DeviceFleet``'s columns, in order, with their dtypes: 5 × 8 + 4 = 44 B
#: per device.
_FLEET_COLUMNS = (
    ("device_id", np.int64),
    ("cpu_score", np.float64),
    ("memory_score", np.float64),
    ("speed_factor", np.float64),
    ("reliability", np.float64),
    ("domain_id", np.int32),
)
#: A device's six values side by side, little-endian and unpadded (44 B):
#: the record of :meth:`DeviceFleet.from_records`.  Below it, the ``struct``
#: reading of one such record into Python values.
FLEET_RECORD = np.dtype(
    [(name, np.dtype(dtype).newbyteorder("<")) for name, dtype in _FLEET_COLUMNS]
)
_RECORD_SIZE = FLEET_RECORD.itemsize
_unpack_record = struct.Struct("<qddddi").unpack_from

# A fleet builds profiles from values its construction already checked, so
# it skips ``__post_init__`` and fills the slots directly: the frozen
# dataclass ``__init__`` plus the checks cost about twice as much.
_new = object.__new__
(
    _set_device_id,
    _set_cpu_score,
    _set_memory_score,
    _set_speed_factor,
    _set_data_domains,
    _set_reliability,
) = (
    vars(DeviceProfile)[name].__set__
    for name in (
        "device_id",
        "cpu_score",
        "memory_score",
        "speed_factor",
        "data_domains",
        "reliability",
    )
)


class DeviceFleet(Sequence):
    """A device population as columns, with profiles built on demand.

    Six read-only numpy columns — ``device_id`` (int64), ``cpu_score``,
    ``memory_score``, ``speed_factor``, ``reliability`` (float64) and
    ``domain_id`` (int32) — plus ``domains``, a tuple of frozensets that
    ``domain_id`` indexes, so every device holding the same domain
    combination shares one set.  The columns are the single
    representation, the pattern of
    :class:`~repro.traces.device_trace.DeviceAvailabilityTrace`.  They are
    views of one buffer that keeps a device's six values side by side
    (44 B, :data:`FLEET_RECORD`), so building a profile reads one record,
    not six arrays — on a fleet-engine day most builds land on a device no
    recent event touched, and six cache misses cost more than the build
    itself.  The buffer is written once: column by column from the
    arguments, or filled by a builder and adopted by :meth:`from_records`
    (the capacity sampler's way, with no second copy of the columns);
    :meth:`take` indexes it and unpickling adopts the pickled one.  And:

    * it is a ``Sequence[DeviceProfile]``: ``fleet[i]`` builds a frozen
      :class:`DeviceProfile` on every access (nothing is retained, so two
      reads give equal profiles, not the same object), iteration builds
      one per step, and a slice is a fleet (:meth:`take`);
    * ``==`` compares two fleets column by column;
    * it pickles as its record buffer and domain sets;
    * :class:`DeviceProfile`'s checks run once, column-wise, at
      construction, with the same messages;
    * :meth:`rows` / :meth:`row` is the one device-id -> row rule.
    """

    def __init__(
        self,
        device_id: Iterable[int],
        cpu_score: Iterable[float],
        memory_score: Iterable[float],
        speed_factor: Iterable[float],
        reliability: Iterable[float],
        domain_id: Iterable[int],
        domains: Iterable[Iterable[str]],
    ) -> None:
        records = None
        for (name, dtype), values in zip(
            _FLEET_COLUMNS,
            (device_id, cpu_score, memory_score, speed_factor, reliability, domain_id),
        ):
            column = np.asarray(values, dtype=dtype)
            if records is None and column.ndim == 1:
                records = np.empty(len(column), dtype=FLEET_RECORD)
            if records is None or column.shape != records.shape:
                raise ValueError("fleet columns must be 1-d and equally long")
            records[name] = column
        self._check_and_adopt(records, domains)

    @classmethod
    def from_records(
        cls, records: np.ndarray, domains: Iterable[Iterable[str]]
    ) -> "DeviceFleet":
        """The fleet whose records are ``records``, a 1-d array of
        :data:`FLEET_RECORD` its builder filled field by field: adopted as
        they are (made read-only, not copied) once the checks pass."""
        if records.dtype != FLEET_RECORD or records.ndim != 1:
            raise ValueError("fleet records must be a 1-d array of FLEET_RECORD")
        fleet = _new(cls)
        fleet._check_and_adopt(records, domains)
        return fleet

    def _check_and_adopt(self, records: np.ndarray, domains) -> None:
        """:class:`DeviceProfile`'s checks, column-wise, then :meth:`_adopt`."""
        for name in ("cpu_score", "memory_score"):
            column = records[name]
            _check(
                column, (column >= 0.0) & (column <= 1.0), f"{name} must be in [0, 1]"
            )
        speed, rel = records["speed_factor"], records["reliability"]
        dom = records["domain_id"]
        _check(
            speed,
            np.isfinite(speed) & (speed > 0),
            "speed_factor must be finite and positive",
        )
        _check(rel, (rel >= 0.0) & (rel <= 1.0), "reliability must be in [0, 1]")
        domains = tuple(
            d if isinstance(d, frozenset) else frozenset(d) for d in domains
        )
        _check(
            dom,
            (dom >= 0) & (dom < len(domains)),
            f"domain_id must index the {len(domains)} domain sets",
        )
        self._adopt(records, domains)

    @classmethod
    def of(cls, devices: Iterable[DeviceProfile]) -> "DeviceFleet":
        """``devices`` itself if it is a fleet, else the fleet of its
        profiles, in their order; equal domain sets are stored once (the
        first object seen stands for its value)."""
        if isinstance(devices, cls):
            return devices
        profiles = list(devices)
        index: Dict[frozenset, int] = {}
        return cls(
            *(
                [getattr(p, name) for p in profiles]
                for name, _ in _FLEET_COLUMNS[:-1]
            ),
            [index.setdefault(frozenset(p.data_domains), len(index)) for p in profiles],
            tuple(index),
        )

    def _adopt(self, records: np.ndarray, domains: Tuple[frozenset, ...]) -> None:
        """Hold ``records`` as the fleet's, read-only; no checks."""
        records.flags.writeable = False
        self._array = records
        for name, _ in _FLEET_COLUMNS:
            setattr(self, name, records[name])
        self.domains = domains
        self._records = memoryview(records.view(np.uint8))
        ids = self.device_id
        self._size = n = len(ids)
        contiguous = n == 0 or (
            int(ids[-1]) - int(ids[0]) == n - 1 and (ids[1:] > ids[:-1]).all()
        )
        #: The first id when the ids run ``id0, id0 + 1, ...`` (every
        #: sampled population): a row is then an offset.  ``None`` sends
        #: lookups to a search (:meth:`_search_index`, built on first use).
        self._id0 = (int(ids[0]) if n else 0) if contiguous else None
        self._search = None

    def take(self, index) -> "DeviceFleet":
        """The fleet of the devices at ``index`` (a slice or an array of
        positions), in that order."""
        if isinstance(index, slice):
            # A slice is a view: copied, so it does not pin this buffer.
            records = self._array[index].copy()
        else:
            records = self._array[np.asarray(index, dtype=np.intp)]
        fleet = _new(type(self))
        fleet._adopt(records, self.domains)
        return fleet

    def __len__(self) -> int:
        return len(self.device_id)

    def rows(self, device_ids) -> np.ndarray:
        """The rows holding ``device_ids``: an offset on contiguous
        ascending ids, a binary search on any others.  ``KeyError`` names
        the ids the fleet does not hold."""
        wanted = np.asarray(device_ids, dtype=np.int64)
        if self._id0 is not None:
            rows = wanted - self._id0
            known = (rows >= 0) & (rows < self._size)
        else:
            sorted_ids, order = self._search or self._search_index()
            pos = sorted_ids.searchsorted(wanted)
            known = pos < self._size
            known[known] = sorted_ids[pos[known]] == wanted[known]
            rows = order[np.where(known, pos, 0)] if order is not None else pos
        if not known.all():
            raise KeyError(f"unknown device ids: {wanted[~known][:5].tolist()}")
        return rows

    def row(self, device_id: int) -> int:
        """:meth:`rows` of one id, as a Python int."""
        id0 = self._id0
        if id0 is not None:
            row = device_id - id0
            if 0 <= row < self._size:
                return row
        return int(self.rows([device_id])[0])

    def _search_index(self):
        """``(sorted ids, order)``, contiguous: ``order`` maps a position in
        the sorted ids back to its row (``None`` when the ids ascend)."""
        ids = self.device_id
        order = None
        if not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
        self._search = (np.ascontiguousarray(ids), order)
        return self._search

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        n = len(self.device_id)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("fleet index out of range")
        device_id, cpu, mem, speed, rel, dom = _unpack_record(
            self._records, i * _RECORD_SIZE
        )
        profile = _new(DeviceProfile)
        _set_device_id(profile, device_id)
        _set_cpu_score(profile, cpu)
        _set_memory_score(profile, mem)
        _set_speed_factor(profile, speed)
        _set_data_domains(profile, self.domains[dom])
        _set_reliability(profile, rel)
        return profile

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeviceFleet):
            return NotImplemented
        if len(self) != len(other) or not all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _FLEET_COLUMNS[:-1]
        ):
            return False
        # Domain ids are local to each fleet's table: compare the sets they
        # name, through one numbering of both tables.
        number: Dict[frozenset, int] = {}
        ours, theirs = (
            np.array(
                [number.setdefault(d, len(number)) for d in fleet.domains],
                dtype=np.int64,
            )[fleet.domain_id]
            for fleet in (self, other)
        )
        return np.array_equal(ours, theirs)

    __hash__ = None

    def __getstate__(self) -> dict:
        return {"records": self._array, "domains": self.domains}

    def __setstate__(self, state: dict) -> None:
        self._adopt(state["records"], state["domains"])

    def __repr__(self) -> str:
        return f"DeviceFleet({len(self)} devices, {len(self.domains)} domain sets)"


def _check(column: np.ndarray, ok: np.ndarray, message: str) -> None:
    """Raise ``ValueError(f"{message}, got {value}")`` for the first value
    of ``column`` that is not ``ok`` (``DeviceProfile``'s message)."""
    if not ok.all():
        raise ValueError(f"{message}, got {column[np.argmin(ok)].item()}")


@dataclass
class JobSpec:
    """Static description of a CL job submitted to the resource manager.

    Parameters
    ----------
    job_id:
        Unique integer identifier.
    requirement:
        The :class:`~repro.core.requirements.EligibilityRequirement` the job's
        devices must satisfy.
    demand_per_round:
        Number of participant devices requested per round (``D_i``).
    num_rounds:
        Number of training rounds the job runs before completing.
    arrival_time:
        Simulated time (seconds) at which the job arrives.
    round_deadline:
        Per-round deadline in seconds.  The paper uses 5-15 minutes depending
        on the round demand.
    min_report_fraction:
        Fraction of ``demand_per_round`` that must report back before the
        deadline for the round to count as successful (0.8 in the paper).
    base_task_duration:
        Median on-device computation time (seconds) of one round's task for a
        device with ``speed_factor == 1``.
    name:
        Optional human-readable name (e.g. ``"emoji-prediction"``).
    """

    job_id: int
    requirement: "object"
    demand_per_round: int
    num_rounds: int
    arrival_time: float = 0.0
    round_deadline: float = 600.0
    min_report_fraction: float = 0.8
    base_task_duration: float = 60.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.demand_per_round <= 0:
            raise ValueError("demand_per_round must be positive")
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if not (0.0 < self.min_report_fraction <= 1.0):
            raise ValueError("min_report_fraction must be in (0, 1]")
        if not math.isfinite(self.arrival_time):
            raise ValueError(f"arrival_time must be finite, got {self.arrival_time}")
        for name in ("round_deadline", "base_task_duration"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.name:
            self.name = f"job-{self.job_id}"

    @property
    def total_demand(self) -> int:
        """Total device-participations the job needs across all rounds."""
        return self.demand_per_round * self.num_rounds

    @property
    def min_reports(self) -> int:
        """Number of responses a round needs to be declared successful."""
        return max(1, math.ceil(self.min_report_fraction * self.demand_per_round))


@dataclass(slots=True)
class ResourceRequest:
    """One round's resource request (paper Figure 6, step 0).

    A request is opened when a job starts a round and closed either when it
    completes (enough responses) or aborts (deadline).  The resource manager
    only ever sees open requests.
    """

    request_id: int
    job_id: int
    demand: int
    submit_time: float
    deadline: float
    min_reports: int
    round_index: int = 0
    state: RequestState = RequestState.PENDING
    #: ``device_id -> assignment time`` of the devices assigned so far, in
    #: assignment order: O(1) membership tests and time lookups on the
    #: check-in/response hot paths.
    assigned_ids: dict = field(default_factory=dict)
    #: Device ids that reported back.
    responses: set = field(default_factory=set)
    #: Time at which the demand was fully acquired (end of scheduling delay).
    acquired_time: Optional[float] = None
    #: Time at which the request reached a terminal state.
    close_time: Optional[float] = None
    #: Scheduled device responses that have not fired yet.  Incremented by
    #: :meth:`record_assignment` (every assignment schedules exactly one
    #: response event, success or failure) and decremented by the engine's
    #: response handlers; a closed request with ``in_flight == 0`` can never
    #: be looked up again, so the engine evicts it from its request table —
    #: the fix for the unbounded ``Simulator._requests`` growth on
    #: multi-day runs.
    in_flight: int = 0
    #: Devices still needed to fully satisfy this request.  Maintained by
    #: :meth:`record_assignment` (always
    #: ``max(0, demand - len(assigned_ids))``)
    #: instead of being recomputed per read: this is one of the hottest
    #: fields in the simulator (every candidate walked at every check-in
    #: reads it).
    remaining_demand: int = field(init=False)

    def __post_init__(self) -> None:
        self.remaining_demand = max(0, self.demand - len(self.assigned_ids))

    @property
    def is_open(self) -> bool:
        state = self.state
        return state is RequestState.PENDING or state is RequestState.COLLECTING

    def is_assigned(self, device_id: int) -> bool:
        """O(1) test whether ``device_id`` is already assigned here."""
        return device_id in self.assigned_ids

    def assigned_time_of(self, device_id: int) -> Optional[float]:
        """O(1) lookup of when ``device_id`` was assigned, if it was."""
        return self.assigned_ids.get(device_id)

    def record_assignment(self, device_id: int, now: float) -> None:
        """Record that ``device_id`` was matched to this request at ``now``."""
        if not self.is_open:
            raise ValueError(f"cannot assign to a {self.state.value} request")
        if self.remaining_demand <= 0:
            raise ValueError("request demand already satisfied")
        if device_id in self.assigned_ids:
            raise ValueError(
                f"device {device_id} is already assigned to this request"
            )
        self.assigned_ids[device_id] = now
        self.in_flight += 1
        self.remaining_demand = max(0, self.demand - len(self.assigned_ids))
        if self.remaining_demand == 0:
            self.state = RequestState.COLLECTING
            self.acquired_time = now

    def record_assignments_bulk(self, device_ids: list, now: float) -> None:
        """Bulk twin of :meth:`record_assignment` for a same-time cohort.

        State-identical to calling :meth:`record_assignment` once per id in
        order (the batched decision path commits whole cohorts at one
        timestamp).  The same invariants are enforced, just once per batch
        instead of once per device: the request must be open, the batch
        must fit the remaining demand, and no id may already be assigned
        (ids within the batch are unique by construction — one device
        checks in at most once per dispatch cohort).
        """
        if not self.is_open:
            raise ValueError(f"cannot assign to a {self.state.value} request")
        if len(device_ids) > self.remaining_demand:
            raise ValueError("request demand already satisfied")
        assigned_ids = self.assigned_ids
        for device_id in device_ids:
            if device_id in assigned_ids:
                raise ValueError(
                    f"device {device_id} is already assigned to this request"
                )
        for device_id in device_ids:
            assigned_ids[device_id] = now
        self.in_flight += len(device_ids)
        self.remaining_demand = max(0, self.demand - len(assigned_ids))
        if self.remaining_demand == 0:
            self.state = RequestState.COLLECTING
            self.acquired_time = now

    def record_response(self, device_id: int) -> None:
        """Record a successful device report."""
        if device_id not in self.assigned_ids:
            raise ValueError(f"device {device_id} was never assigned to this request")
        self.responses.add(device_id)

    @property
    def scheduling_delay(self) -> Optional[float]:
        """Time from submission to full acquisition, if acquired."""
        if self.acquired_time is None:
            return None
        return self.acquired_time - self.submit_time

    @property
    def response_collection_time(self) -> Optional[float]:
        """Time from full acquisition to the closing response, if completed."""
        if self.acquired_time is None or self.close_time is None:
            return None
        if self.state is not RequestState.COMPLETED:
            return None
        return self.close_time - self.acquired_time

    @property
    def duration(self) -> Optional[float]:
        """End-to-end round duration (scheduling delay + collection time)."""
        if self.close_time is None:
            return None
        return self.close_time - self.submit_time


__all__ = [
    "DeviceFleet",
    "DeviceProfile",
    "FLEET_RECORD",
    "JobSpec",
    "JobState",
    "RequestState",
    "ResourceRequest",
]
