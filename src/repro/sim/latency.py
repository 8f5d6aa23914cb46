"""On-device execution latency and failure model.

The paper (§4.3) notes that device response times follow a log-normal
distribution and uses the 95th percentile as the tail statistic.  This module
provides that model: a device's response time is

``base_task_duration × speed_factor × LogNormal(0, sigma) + communication``

where ``speed_factor`` comes from the capacity trace (slower hardware → larger
factor) and the communication term models upload/download of model weights.
Failures combine the device's intrinsic reliability with going offline before
the task finishes (the engine checks the latter against the session end).

Per-device randomness
---------------------

Draws come from **per-device streams**: draw ``j`` of device ``d`` is a pure
function of ``(master entropy, d, j)``, so a device's latency/failure draws
depend on the device and its own assignment history only — the draw *order
across devices* does not matter.  That property is what lets the fleet
engine batch a dispatch sweep's draws while staying bit-identical to the
single-queue engine, which draws one assignment at a time.

Per-device streams are generated *counter-based* (a SplitMix64 keyed by
``(master, device_id, draw index)``, normals via Box–Muller) rather than by
spawning one ``numpy`` generator per device: constructing a
``Generator(PCG64(SeedSequence(entropy, spawn_key=(device_id,))))`` costs
~15 µs, and under the one-job-per-day constraint nearly every assignment
lands on a *distinct* device, so per-device generator objects would add
~10 s to a million-device day — per-draw key hashing costs ~2 µs with no
per-device state beyond a draw counter.  (The availability generator, which
does need a full generator per device, avoids the same constructor by
re-seeding one reused generator: :mod:`repro.traces.streams`, ~3 µs.)  The
master entropy is still derived through :class:`numpy.random.SeedSequence`,
so a config seed keys the whole family the same way the rest of the repo
derives streams.

Network-degradation layer
-------------------------

On top of the compute/comm model, :class:`LatencyConfig` carries a
*network-condition* layer (all off by default):

* **lossy uplink** (``loss_rate``, ``max_retries``, ``retry_backoff``):
  each report upload is a sequence of transfer attempts; an attempt is lost
  with the effective loss probability, every lost attempt inflates the
  communication time by ``retry_backoff ×`` the link's transfer time, and a
  report whose ``1 + max_retries`` attempts are all lost never arrives — a
  *failure on loss*, folded into the dropout outcome;
* **link flaps** (``flap_period``, ``flap_duration``, ``flap_loss_rate``):
  periodic windows during which the loss rate is elevated by
  ``flap_loss_rate`` — window membership is evaluated at assignment time;
* **link-speed tiers** (``link_tiers``): the population is partitioned into
  per-link-speed tiers (fiber/broadband/cellular-style), each scaling the
  device's uniform ``comm_min``/``comm_max`` draw.  A device's tier is a
  pure function of ``(master entropy, device_id)`` — a dedicated salted
  hash, **not** a draw from the device's stream — so tier membership is
  static and consumes no draw-counter state.

Every stochastic network draw goes through the same per-(device, draw)
counter streams as the compute/comm draws, and the knobs gate the extra
draws: with the layer off, a run consumes *exactly* the historical draw
sequence, so golden fixtures and engine/worker bit-identity are preserved.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.types import DeviceProfile, JobSpec

_MASK64 = (1 << 64) - 1
#: Odd constants of the SplitMix64 finalizer (Steele et al.) and two
#: independent stream-separation multipliers.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB
_DEVICE_STRIDE = 0xD1342543DE82EF95
#: Salt separating the static per-device *tier* hash from the per-draw
#: streams (tier membership consumes no draw-counter state).
_TIER_SALT = 0xA24BAED4963EE407
_TWO_PI = 2.0 * math.pi
#: 2^64 as a float, for mapping hashes into (0, 1).
_INV_2_64 = 1.0 / float(1 << 64)
#: Largest float64 strictly below 1.0 — the open-interval ceiling of
#: :meth:`ResponseLatencyModel._uniform`.
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanching 64-bit int -> 64-bit int."""
    z = ((z ^ (z >> 30)) * _SM_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MUL2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: "np.ndarray") -> "np.ndarray":
    """SplitMix64 finalizer over a ``uint64`` array (wrapping arithmetic).

    numpy's fixed-width uint64 ops wrap modulo 2^64, which is exactly the
    ``& _MASK64`` of the scalar :func:`_mix64` — the two are bit-identical
    hash for hash.
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MUL2)
    return z ^ (z >> np.uint64(31))


def _uniform_array(h: "np.ndarray") -> "np.ndarray":
    """Map hash values to (0, 1) floats, bit-identical to ``_uniform``.

    The scalar path computes ``(h + 1) / 2^64`` with arbitrary-precision
    ints — ``h + 1`` can reach 2^64 exactly — then clamps results that
    round to 1.0 down to the largest float below 1.0.  In uint64, ``h + 1``
    wraps to 0 instead; both the wrap and the round-to-1.0 cases land in
    the same clamp, so the results match for every hash value.  (Casting to
    float *before* adding 1.0 would not: for ``h >= 2^53`` the two
    roundings can differ by one ULP.)
    """
    hp1 = h + np.uint64(1)
    f = hp1.astype(np.float64) * _INV_2_64
    return np.where((hp1 == np.uint64(0)) | (f >= 1.0), _BELOW_ONE, f)


#: ``(tier name, population fraction, comm-time scale)`` triples describing
#: per-link-speed device tiers (see :class:`LatencyConfig.link_tiers`).
LinkTier = Tuple[str, float, float]


@dataclass
class LatencyConfig:
    """Parameters of the response-latency model."""

    #: Log-normal sigma of the multiplicative compute-time noise.
    compute_sigma: float = 0.35
    #: Bounds of the uniform communication overhead (seconds).
    comm_min: float = 5.0
    comm_max: float = 20.0
    # --- network-degradation layer (defaults = pristine network) --------- #
    #: Probability that one uplink transfer attempt is lost.  Lost attempts
    #: inflate the communication time (see ``retry_backoff``); a report
    #: whose ``1 + max_retries`` attempts are all lost counts as a dropout.
    loss_rate: float = 0.0
    #: Transfer attempts allowed *after* the first one.
    max_retries: int = 3
    #: Communication-time multiplier charged per lost attempt (the wasted
    #: transfer plus the retransmission).
    retry_backoff: float = 1.0
    #: Link-flap windows: every ``flap_period`` seconds a window of
    #: ``flap_duration`` seconds opens during which the loss rate is
    #: elevated by ``flap_loss_rate`` (capped at 1).  ``flap_period=0``
    #: disables flaps; ``flap_duration >= flap_period`` degrades the link
    #: permanently.  Window membership is evaluated at assignment time.
    flap_period: float = 0.0
    flap_duration: float = 0.0
    flap_loss_rate: float = 0.0
    #: Per-link-speed device tiers: ``(name, fraction, comm_scale)`` triples
    #: with positive fractions summing to 1.  Each device is statically
    #: hashed into a tier; its tier's ``comm_scale`` multiplies the uniform
    #: ``comm_min``/``comm_max`` communication draw (and the per-retry
    #: inflation).  Empty tuple = a single implicit tier with scale 1.
    link_tiers: Tuple[LinkTier, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in (
            "compute_sigma", "comm_min", "comm_max",
            "loss_rate", "max_retries", "retry_backoff",
            "flap_period", "flap_duration", "flap_loss_rate",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        # A count, not a float: the attempt loop ranges over it.  A JSON
        # override gives ``3.0``, which would only fail at the first lossy
        # draw, mid-run.
        retries = self.max_retries
        if isinstance(retries, bool) or not isinstance(retries, numbers.Integral):
            raise TypeError(
                f"max_retries must be an int (got {type(retries).__name__} "
                f"{retries!r})"
            )
        if self.compute_sigma < 0:
            raise ValueError("compute_sigma must be non-negative")
        if self.comm_min < 0 or self.comm_max < self.comm_min:
            raise ValueError("need 0 <= comm_min <= comm_max")
        if not (0.0 <= self.loss_rate <= 1.0):
            raise ValueError("loss_rate must be in [0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if self.flap_period < 0 or self.flap_duration < 0:
            raise ValueError("flap_period and flap_duration must be non-negative")
        if not (0.0 <= self.flap_loss_rate <= 1.0):
            raise ValueError("flap_loss_rate must be in [0, 1]")
        if self.flap_duration > 0 and self.flap_period <= 0:
            raise ValueError("flap_duration needs a positive flap_period")
        # Tuple-ify so scenario overrides may pass lists (JSON-friendly).
        self.link_tiers = tuple(
            (str(name), float(frac), float(scale))
            for name, frac, scale in self.link_tiers
        )
        if self.link_tiers:
            fractions = [frac for _, frac, _ in self.link_tiers]
            if any(f <= 0 for f in fractions) or not math.isclose(
                sum(fractions), 1.0, rel_tol=1e-9, abs_tol=1e-9
            ):
                raise ValueError(
                    "link tier fractions must be positive and sum to 1"
                )
            if not all(
                math.isfinite(scale) and scale > 0
                for _, _, scale in self.link_tiers
            ):
                raise ValueError(
                    "link tier comm scales must be finite and positive"
                )

    @property
    def degrades_network(self) -> bool:
        """Whether any network-degradation knob is active.  When ``False``
        the model consumes exactly the historical draw sequence."""
        return bool(
            self.loss_rate > 0
            or (self.flap_period > 0 and self.flap_duration > 0
                and self.flap_loss_rate > 0)
        )

    def effective_loss_rate(self, now: float) -> float:
        """Loss probability of one transfer attempt starting at ``now``."""
        loss = self.loss_rate
        if (
            self.flap_period > 0
            and self.flap_duration > 0
            and (now % self.flap_period) < self.flap_duration
        ):
            loss = min(1.0, loss + self.flap_loss_rate)
        return loss


class ResponseLatencyModel:
    """Samples per-assignment response times and failure outcomes."""

    def __init__(
        self,
        config: Optional[LatencyConfig] = None,
        per_device_entropy: Optional[Union[int, tuple]] = None,
    ) -> None:
        """``per_device_entropy`` keys the per-device streams (see the module
        docstring); ``None`` draws fresh OS entropy, like ``default_rng()``."""
        self.config = config or LatencyConfig()
        #: device_id -> tier index cache (static membership, lazily hashed).
        self._tier_cache: Dict[int, int] = {}
        # Normalise whatever the caller passed (int seed, tuple, None)
        # through a SeedSequence, then collapse to the 64-bit master key
        # of the counter-based per-device streams.
        seed_seq = np.random.SeedSequence(per_device_entropy)
        self._entropy = seed_seq.entropy
        self._master = int(seed_seq.generate_state(1, np.uint64)[0])
        #: device_id -> number of uniforms consumed so far.
        self._draw_counts: Dict[int, int] = {}

    def _uniform(self, device_id: int, index: int) -> float:
        """Uniform (0, 1) draw ``index`` of ``device_id``'s stream."""
        h = _mix64(
            (
                self._master
                + device_id * _DEVICE_STRIDE
                + index * _SM_GAMMA
            )
            & _MASK64
        )
        # (h + 1) / 2^64 lies in (0, 1] and the ~2^10 largest hash values
        # round to exactly 1.0 in float64 — outside the documented open
        # interval (a comm draw would hit comm_max exactly, and downstream
        # log()/division contracts assume u < 1).  Clamp those to the
        # largest float below 1.0; every other draw is bit-unchanged.
        u = (h + 1) * _INV_2_64
        return u if u < 1.0 else _BELOW_ONE

    # ------------------------------------------------------------------ #
    # Link tiers
    # ------------------------------------------------------------------ #
    def link_tier(self, device_id: int) -> int:
        """Index of ``device_id``'s link-speed tier (0 when untiered).

        Tier membership is a *static* salted hash of ``(master entropy,
        device_id)`` — not a stream draw — so it never advances the draw
        counter and is identical on either engine.
        """
        tiers = self.config.link_tiers
        if not tiers:
            return 0
        tier = self._tier_cache.get(device_id)
        if tier is None:
            h = _mix64(
                ((self._master ^ _TIER_SALT) + device_id * _DEVICE_STRIDE) & _MASK64
            )
            u = (h + 1) * _INV_2_64
            acc = 0.0
            tier = len(tiers) - 1
            for i, (_, fraction, _) in enumerate(tiers):
                acc += fraction
                if u <= acc:
                    tier = i
                    break
            self._tier_cache[device_id] = tier
        return tier

    def _comm_scale(self, device_id: int) -> float:
        tiers = self.config.link_tiers
        if not tiers:
            return 1.0
        return tiers[self.link_tier(device_id)][2]

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_duration(self, job: JobSpec, device: DeviceProfile) -> float:
        """Response time (seconds) for ``device`` executing one round of ``job``.

        Pristine-network path (no loss/retry accounting); the engine uses
        :meth:`sample_outcome`, which layers the network conditions on top.
        """
        duration, _ = self._sample_duration_parts(
            job, device.device_id, device.speed_factor, now=0.0, lossy=False
        )
        return duration

    def _sample_duration_parts(
        self,
        job: JobSpec,
        device_id: int,
        speed_factor: float,
        now: float,
        lossy: bool,
    ) -> Tuple[float, bool]:
        """``(duration, lost)`` for one assignment of the device.

        ``lossy=True`` additionally plays out the uplink transfer attempts:
        each lost attempt adds ``retry_backoff ×`` the link's transfer time,
        and exhausting ``1 + max_retries`` attempts returns ``lost=True``
        (the report never arrives).  The loss draws come from the same
        per-(device, draw) streams and are gated on the knobs, so a
        pristine-network run consumes exactly the historical sequence.
        """
        cfg = self.config
        k = self._draw_counts.get(device_id, 0)
        self._draw_counts[device_id] = k + 3
        u1 = self._uniform(device_id, k)
        u2 = self._uniform(device_id, k + 1)
        u3 = self._uniform(device_id, k + 2)
        # Box–Muller: exact standard normal from two uniforms.
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
        compute = (
            job.base_task_duration
            * speed_factor
            * math.exp(cfg.compute_sigma * z)
        )
        comm = (cfg.comm_min + (cfg.comm_max - cfg.comm_min) * u3) * (
            self._comm_scale(device_id)
        )
        if lossy and cfg.degrades_network:
            loss = cfg.effective_loss_rate(now)
            transfer = comm
            attempts = 1 + cfg.max_retries
            lost = False
            for _ in range(attempts):
                k = self._draw_counts[device_id]
                self._draw_counts[device_id] = k + 1
                if self._uniform(device_id, k) >= loss:
                    break
                comm += transfer * cfg.retry_backoff
            else:
                lost = True
            return compute + comm, lost
        return compute + comm, False

    def sample_failure(self, device: DeviceProfile) -> bool:
        """Whether the device drops out instead of reporting back."""
        return self._failure(device.device_id, device.reliability)

    def _failure(self, device_id: int, reliability: float) -> bool:
        k = self._draw_counts.get(device_id, 0)
        self._draw_counts[device_id] = k + 1
        return self._uniform(device_id, k) > reliability

    def sample_outcome(
        self, job: JobSpec, device: DeviceProfile, now: float = 0.0
    ) -> Tuple[float, bool]:
        """``(duration, dropped)`` for one assignment starting at ``now``.

        The engine's sampling entry point: duration (compute + possibly
        retry-inflated communication), then the intrinsic-reliability
        dropout draw; a report that lost all its uplink transfer attempts
        is a dropout regardless of reliability.  Draw order (three duration
        uniforms, loss attempts, one reliability uniform) matches the
        historical ``sample_duration`` + ``sample_failure`` sequence, so
        with the network layer off the outcomes are bit-identical to the
        pre-network-layer engine.
        """
        return self._outcome(
            job, device.device_id, device.speed_factor, device.reliability, now
        )

    def _outcome(
        self,
        job: JobSpec,
        device_id: int,
        speed_factor: float,
        reliability: float,
        now: float,
    ) -> Tuple[float, bool]:
        duration, lost = self._sample_duration_parts(
            job, device_id, speed_factor, now, lossy=True
        )
        dropped = self._failure(device_id, reliability)
        return duration, lost or dropped

    def sample_outcomes_batch(
        self,
        jobs: "Sequence[JobSpec]",
        device_ids: "np.ndarray",
        speed_factors: "np.ndarray",
        reliabilities: "np.ndarray",
        now: float = 0.0,
    ) -> "list[Tuple[float, bool]]":
        """Batched :meth:`sample_outcome` over parallel sequences: the
        jobs, and the assigned devices' ``device_id``, ``speed_factor`` and
        ``reliability`` (the fleet's columns read at their rows).

        Bit-identical to calling :meth:`sample_outcome` per element in
        order.  The per-(device, draw) SplitMix64 hashing — the dominant
        per-assignment cost in the scalar path, all Python big-int
        arithmetic — is evaluated as uint64 array ops; the transcendental
        compute/comm math stays per-element ``math.*`` because ``np.log`` /
        ``np.exp`` are *not* bit-identical to libm on this platform (the
        Box–Muller chain diverges in ~0.4% of draws).  With any
        network-degradation knob active the draw count per assignment is
        data-dependent (loss retries), so the batch falls back to the exact
        scalar path per element.
        """
        ids = np.asarray(device_ids, dtype=np.int64)
        device_ids = ids.tolist()
        speed_factors = np.asarray(speed_factors, dtype=np.float64).tolist()
        reliabilities = np.asarray(reliabilities, dtype=np.float64).tolist()
        n = len(device_ids)
        cfg = self.config
        if cfg.degrades_network or n <= 1:
            return [
                self._outcome(
                    jobs[i], device_ids[i], speed_factors[i], reliabilities[i], now
                )
                for i in range(n)
            ]
        counts = self._draw_counts
        k0 = np.empty(n, dtype=np.uint64)
        for i, did in enumerate(device_ids):
            k = counts.get(did, 0)
            counts[did] = k + 4
            k0[i] = k
        base = (
            np.uint64(self._master)
            + ids.astype(np.uint64) * np.uint64(_DEVICE_STRIDE)
            + k0 * np.uint64(_SM_GAMMA)
        )[:, None] + np.arange(4, dtype=np.uint64) * np.uint64(_SM_GAMMA)
        u = _uniform_array(_mix64_array(base)).tolist()
        sigma = cfg.compute_sigma
        comm_min = cfg.comm_min
        comm_span = cfg.comm_max - cfg.comm_min
        out = []
        for i in range(n):
            u1, u2, u3, u4 = u[i]
            # Box–Muller, identical expression tree to the scalar path.
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
            compute = (
                jobs[i].base_task_duration
                * speed_factors[i]
                * math.exp(sigma * z)
            )
            comm = (comm_min + comm_span * u3) * self._comm_scale(device_ids[i])
            out.append((compute + comm, u4 > reliabilities[i]))
        return out

    def expected_duration(self, job: JobSpec, device: DeviceProfile) -> float:
        """Mean response time (no sampling); useful for estimators and tests.

        Accounts for the device's link-tier comm scale and the expected
        retry inflation at the *baseline* loss rate (flap windows are
        time-dependent and excluded)."""
        cfg = self.config
        compute = (
            job.base_task_duration
            * device.speed_factor
            * float(np.exp(cfg.compute_sigma**2 / 2.0))
        )
        comm = (cfg.comm_min + cfg.comm_max) / 2.0
        comm *= self._comm_scale(device.device_id)
        if cfg.loss_rate > 0:
            # Expected lost attempts among the first 1 + max_retries:
            # sum_{i=1..max_retries+1} p^i truncates the geometric series.
            p = cfg.loss_rate
            expected_lost = sum(p**i for i in range(1, cfg.max_retries + 2))
            comm *= 1.0 + cfg.retry_backoff * expected_lost
        return compute + comm

    def tail_duration(
        self, job: JobSpec, device: DeviceProfile, percentile: float = 95.0
    ) -> float:
        """Approximate response-time percentile for one device."""
        from scipy import stats

        cfg = self.config
        z = stats.norm.ppf(percentile / 100.0)
        compute = (
            job.base_task_duration
            * device.speed_factor
            * float(np.exp(cfg.compute_sigma * z))
        )
        comm = cfg.comm_min + (percentile / 100.0) * (cfg.comm_max - cfg.comm_min)
        comm *= self._comm_scale(device.device_id)
        return compute + comm


__all__ = ["LatencyConfig", "LinkTier", "ResponseLatencyModel"]
