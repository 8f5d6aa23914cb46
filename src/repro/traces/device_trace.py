"""Device availability trace (FedScale-style, Figure 2a).

The paper replays a real one-week availability trace (180 M events) in which
devices are usable only while charging and on WiFi; the number of available
devices follows a strong diurnal pattern.  This module generates synthetic
traces with the same behaviourally relevant structure:

* every device alternates between *online sessions* and offline gaps;
* the probability of starting a session follows a 24-hour sinusoid, so the
  population-level availability swings by roughly 2x between the daily peak
  and trough (as in Figure 2a);
* session lengths are log-normal (most sessions are an hour or two, a few
  last all night).

A :class:`DeviceAvailabilityTrace` is **columnar**: three parallel arrays
(``device_ids``, ``starts``, ``ends``), one entry per session, are its single
representation, because that is what its consumers read — the engine's stream
builder takes one ``lexsort`` of them, the unknown-device check one
``np.isin``, the availability curve of Figure 2a two ``searchsorted``.
:class:`AvailabilitySession` objects are a view for small-scale callers
(scenario transforms, examples, tests), built on demand by ``.sessions`` and
accepted back through ``sessions=``.  The generator builds the columns with
no per-device Python loop: a block of ``_BLOCK`` devices steps its
per-device streams (:class:`~repro.traces.streams.LockstepPCG64`) and its
session recurrence together as numpy columns, so building a day's trace costs
a few array operations per device and draw.  The block is a memory bound, not
a unit of work — sessions do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .streams import LockstepPCG64, check_device_ids

#: Seconds per day, used throughout the module.
DAY = 24 * 3600.0
#: Devices generated in lockstep at once.  A memory bound (a block's state
#: limbs, clocks and sessions are alive together), not a unit of work:
#: sessions do not depend on it.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class AvailabilitySession:
    """A contiguous interval during which one device is online and idle-able."""

    device_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("session end must be after start")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class DiurnalConfig:
    """Parameters of the diurnal availability model."""

    #: Simulated horizon in seconds (default: 4 days).
    horizon: float = 4 * DAY
    #: Fraction of the population online at the daily peak.
    peak_availability: float = 0.30
    #: Fraction of the population online at the daily trough.
    trough_availability: float = 0.12
    #: Hour of day (0-24) at which availability peaks (devices charge at night).
    peak_hour: float = 2.0
    #: Median online-session length in seconds.
    median_session: float = 2 * 3600.0
    #: Log-normal sigma of the session length.
    session_sigma: float = 0.8

    def __post_init__(self) -> None:
        # An infinite horizon would never stop generating; NaN ones and an
        # infinite median_session would silently yield an empty trace.
        for name in ("horizon", "median_session", "peak_hour", "session_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not (0 < self.trough_availability <= self.peak_availability <= 1):
            raise ValueError("need 0 < trough <= peak <= 1")
        if self.median_session <= 0:
            raise ValueError("median_session must be positive")
        # Sessions scale a standard normal by sigma, which no check in numpy
        # sees: a negative sigma would pass silently.
        if self.session_sigma < 0:
            raise ValueError("session_sigma must be non-negative")

    def availability_at(self, t: float) -> float:
        """Expected online fraction of the population at time ``t``."""
        mid = (self.peak_availability + self.trough_availability) / 2.0
        amp = (self.peak_availability - self.trough_availability) / 2.0
        phase = 2.0 * np.pi * ((t / DAY) - self.peak_hour / 24.0)
        return float(mid + amp * np.cos(phase))


class DeviceAvailabilityTrace:
    """All availability sessions of a device population over a horizon.

    Three parallel arrays — ``device_ids`` (int64), ``starts`` and ``ends``
    (float64), one entry per session in construction order — are the single
    representation.  Build one from columns or from ``sessions=``; either
    way every session must satisfy ``end > start``.
    """

    def __init__(
        self,
        horizon: float,
        sessions: Optional[Sequence[AvailabilitySession]] = None,
        *,
        device_ids: Sequence[int] = (),
        starts: Sequence[float] = (),
        ends: Sequence[float] = (),
    ) -> None:
        if sessions is not None:
            if len(device_ids) or len(starts) or len(ends):
                raise ValueError("give sessions or columns, not both")
            device_ids = [s.device_id for s in sessions]
            starts = [s.start for s in sessions]
            ends = [s.end for s in sessions]
        self.horizon = horizon
        self.device_ids = np.array(device_ids, dtype=np.int64)
        self.starts = np.array(starts, dtype=np.float64)
        self.ends = np.array(ends, dtype=np.float64)
        if self.starts.ndim != 1 or not (
            self.device_ids.shape == self.starts.shape == self.ends.shape
        ):
            raise ValueError("device_ids, starts and ends must be 1-d and equally long")
        if (self.ends <= self.starts).any():
            raise ValueError("session end must be after start")

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def sessions(self) -> List[AvailabilitySession]:
        """The sessions as objects, built on every access and not retained —
        for small-scale callers; mutating the list does not touch the trace."""
        return [
            AvailabilitySession(d, s, e)
            for d, s, e in zip(
                self.device_ids.tolist(), self.starts.tolist(), self.ends.tolist()
            )
        ]

    def checkin_events(self) -> List[Tuple[float, int, float]]:
        """Sorted ``(start, device_id, end)`` tuples — the simulator's input."""
        starts, ids, ends = self.checkin_events_arrays()
        return list(zip(starts.tolist(), ids.tolist(), ends.tolist()))

    def checkin_events_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`checkin_events` as parallel numpy arrays
        ``(starts, device_ids, ends)``.

        Same (start, device_id, end) lexicographic order as the tuple form,
        one vectorised lexsort over the columns — the representation the
        fleet engine's stream builder consumes.
        """
        order = np.lexsort((self.ends, self.device_ids, self.starts))
        return self.starts[order], self.device_ids[order], self.ends[order]

    def availability_curve(
        self, resolution: float = 600.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return (times, online_count) sampled every ``resolution`` seconds.

        This regenerates the data behind Figure 2a: the number of devices
        online over the horizon, exhibiting the diurnal swing.
        """
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        times = np.arange(0.0, self.horizon + resolution, resolution)
        # Online at t = sessions started by t minus sessions ended by t.
        started = np.searchsorted(np.sort(self.starts), times, side="right")
        ended = np.searchsorted(np.sort(self.ends), times, side="right")
        return times, (started - ended).astype(times.dtype)

    @property
    def num_devices(self) -> int:
        # A sort and an adjacent compare: a plain np.unique of integers takes
        # numpy's slower hash path and imports numpy.ma.
        ids = np.sort(self.device_ids)
        return int(ids.size and np.count_nonzero(ids[1:] != ids[:-1]) + 1)


class DiurnalAvailabilityModel:
    """Generates :class:`DeviceAvailabilityTrace` objects.

    The generation works per device: offline gaps are sampled from an
    exponential distribution whose rate is modulated by the diurnal
    availability target, and each gap is followed by a log-normal online
    session.  The resulting population-level availability tracks the
    configured peak/trough fractions.

    Every device draws from its **own random stream**, numpy's
    ``SeedSequence(entropy, spawn_key=(device_id,))`` child.  Because no
    device's draws depend on another's, the generator advances a whole block
    of devices in lockstep as numpy columns
    (:class:`~repro.traces.streams.LockstepPCG64`) and every device still
    gets the numbers its own ``Generator`` would give it.  The same
    independence means a device's sessions depend only on the model seed and
    its id, never on which other devices are generated or in which order.
    """

    def __init__(
        self,
        config: Optional[DiurnalConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or DiurnalConfig()
        # Normalising through a SeedSequence gives stable entropy even for
        # seed=None (a random run is still internally consistent).
        self._entropy = np.random.SeedSequence(seed).entropy

    def _columns(
        self, device_ids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Session columns of the listed devices, in their order, each
        device's sessions in time order; ``_BLOCK`` devices at a time."""
        ids = check_device_ids(device_ids)
        if (np.diff(np.sort(ids)) == 0).any():
            raise ValueError("device ids must be distinct")
        blocks = [
            self._block_columns(ids[lo : lo + _BLOCK])
            for lo in range(0, ids.size, _BLOCK)
        ]
        if not blocks:
            return np.empty(0, np.int64), np.empty(0), np.empty(0)
        return tuple(np.concatenate(column) for column in zip(*blocks))

    def _block_columns(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Session columns of one block of devices, stepped in lockstep.

        Per device: a random initial phase (so devices are not synchronised),
        then exponential offline gaps alternating with log-normal sessions.
        With online fraction ``p`` and mean session ``s`` the mean gap is
        ``s * (1 - p) / p``, which makes the stationary online fraction track
        :meth:`DiurnalConfig.availability_at`.

        One step draws the next gap of every device still before the
        horizon, then the session of every device whose gap ended before
        it, and drops the devices that are done.  The arithmetic is the
        scalar recurrence's, in the same operation order, as array ufuncs.
        """
        cfg = self.config
        horizon = cfg.horizon
        mid = (cfg.peak_availability + cfg.trough_availability) / 2.0
        amp = (cfg.peak_availability - cfg.trough_availability) / 2.0
        two_pi, peak_phase = 2.0 * np.pi, cfg.peak_hour / 24.0
        mean_session = cfg.median_session * float(np.exp(cfg.session_sigma**2 / 2))
        log_median, sigma = float(np.log(cfg.median_session)), cfg.session_sigma
        p = max(1e-3, cfg.availability_at(0.0))
        first_gap = mean_session * (1.0 - p) / p
        streams = LockstepPCG64(self._entropy, ids)
        rows = np.arange(ids.size)
        t = first_gap * streams.random()
        emitted = [(rows[:0], t[:0], t[:0])]
        live = t < horizon
        while True:
            rows, t = rows[live], t[live]
            streams.keep(live)
            if not rows.size:
                break
            # The mean gap at t; p is cfg.availability_at(t), inlined.
            p = mid + amp * np.cos(two_pi * ((t / DAY) - peak_phase))
            np.maximum(p, 1e-3, out=p)
            start = t + mean_session * (1.0 - p) / p * streams.standard_exponential()
            live = start < horizon
            rows, start = rows[live], start[live]
            streams.keep(live)
            t = start + np.exp(log_median + sigma * streams.standard_normal())
            np.minimum(t, horizon, out=t)
            kept = t > start
            emitted.append((rows[kept], start[kept], t[kept]))
            live = t < horizon
        rows, starts, ends = (np.concatenate(column) for column in zip(*emitted))
        # Steps are chronological and rows ascend within a step, so a stable
        # sort by row lists each device's sessions in time order.
        order = np.argsort(rows, kind="stable")
        return ids[rows[order]], starts[order], ends[order]

    def generate(
        self, num_devices: int, device_ids: Optional[Sequence[int]] = None
    ) -> DeviceAvailabilityTrace:
        """Generate a trace for ``num_devices`` devices over the horizon.

        ``device_ids`` restricts generation to a subset — the sessions of
        each listed device are identical to the ones it would get in the
        full-population trace.  The ids must be distinct and lie in
        ``[0, 2**32)``; both are checked before anything is drawn.
        """
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        ids, starts, ends = self._columns(
            range(num_devices) if device_ids is None else device_ids
        )
        return DeviceAvailabilityTrace(
            self.config.horizon, device_ids=ids, starts=starts, ends=ends
        )


__all__ = [
    "AvailabilitySession",
    "DAY",
    "DeviceAvailabilityTrace",
    "DiurnalAvailabilityModel",
    "DiurnalConfig",
]
