"""Device hardware-capacity trace (AI-Benchmark-style, Figures 2b / 8a).

The paper draws per-device CPU and memory scores from the AI Benchmark
smartphone dataset, normalises them to ``[0, 1]`` and stratifies the
population into four regions (General, Compute-Rich, Memory-Rich,
High-Performance) using a cut at 0.5 on each axis.  Since that dataset is not
redistributable, this module generates a synthetic population with the same
behaviourally relevant properties:

* right-skewed, positively correlated CPU/memory scores (most devices are
  mid/low-end, a long tail of flagships),
* a configurable fraction of devices falling in each of the four regions,
* an execution ``speed_factor`` that decreases with hardware capability, so
  hardware heterogeneity translates into response-time heterogeneity, and
* per-device data domains and reliability.

It also carries the minimum-requirement annotations of Figure 2b
(:data:`MODEL_REQUIREMENTS` for MobileNet, VideoSR and MobileBERT).

:meth:`CapacitySampler.sample_devices` costs about what its draws cost.  The
draws stay per device, in the seed's order (a device's domain uniforms as one
``random(out=row)``, then ``beta``, then ``normal``); everything derived from
them — domain sets, reliability, speed — is computed per block of ``_BATCH``
devices in numpy, straight into the columns of the returned
:class:`~repro.core.types.DeviceFleet`; no ``DeviceProfile`` is built.
``_BATCH`` is a memory bound: it caps the derivation transients, not the
work.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.requirements import DEFAULT_CATEGORIES, EligibilityRequirement
from ..core.types import DeviceFleet, DeviceProfile

#: Minimum hardware requirements of the three on-device models annotated in
#: Figure 2b of the paper (normalised scores).
MODEL_REQUIREMENTS: Dict[str, EligibilityRequirement] = {
    "mobilenet": EligibilityRequirement("mobilenet", min_cpu=0.2, min_memory=0.15),
    "mobilebert": EligibilityRequirement("mobilebert", min_cpu=0.45, min_memory=0.4),
    "videosr": EligibilityRequirement("videosr", min_cpu=0.7, min_memory=0.6),
}

#: Data domains used by the example CL applications in the paper's intro.
DEFAULT_DATA_DOMAINS: Tuple[str, ...] = (
    "keyboard",
    "emoji",
    "speech",
    "health",
    "query",
    "dictation",
)

#: Devices derived per block: bounds the per-block columns and masks.
_BATCH = 1 << 12


@dataclass
class CapacityConfig:
    """Parameters of the synthetic capacity distribution."""

    #: Mean / sigma of the underlying bivariate normal (before squashing).
    cpu_mu: float = -0.35
    mem_mu: float = -0.25
    sigma: float = 0.55
    #: Correlation between CPU and memory capability.
    correlation: float = 0.6
    #: Median task slowdown of the weakest devices relative to the strongest.
    max_slowdown: float = 6.0
    #: Probability that a device holds each data domain.
    domain_probability: float = 0.35
    #: Mean reliability (probability of completing an assigned task).
    mean_reliability: float = 0.9
    data_domains: Tuple[str, ...] = DEFAULT_DATA_DOMAINS

    def __post_init__(self) -> None:
        for name in ("cpu_mu", "mem_mu", "sigma", "max_slowdown"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        if not (-1.0 < self.correlation < 1.0):
            raise ValueError("correlation must be in (-1, 1)")
        if self.max_slowdown < 1.0:
            raise ValueError("max_slowdown must be >= 1")
        if not (0.0 <= self.domain_probability <= 1.0):
            raise ValueError("domain_probability must be a probability")
        if not (0.0 < self.mean_reliability <= 1.0):
            raise ValueError("mean_reliability must be in (0, 1]")


class CapacitySampler:
    """Samples device populations (:class:`~repro.core.types.DeviceFleet`)."""

    def __init__(
        self,
        config: Optional[CapacityConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.config = config or CapacityConfig()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_scores(self, n: int) -> np.ndarray:
        """Sample ``(n, 2)`` normalised (cpu, memory) scores in [0, 1]."""
        if n <= 0:
            raise ValueError("n must be positive")
        cfg = self.config
        cov = np.array(
            [
                [cfg.sigma**2, cfg.correlation * cfg.sigma**2],
                [cfg.correlation * cfg.sigma**2, cfg.sigma**2],
            ]
        )
        raw = self._rng.multivariate_normal(
            mean=[cfg.cpu_mu, cfg.mem_mu], cov=cov, size=n
        )
        # Logistic squashing gives a right-skewed distribution on [0, 1] with
        # most mass below 0.5 — matching the AI-Benchmark population shape.
        scores = 1.0 / (1.0 + np.exp(-raw))
        return np.clip(scores, 0.0, 1.0)

    def speed_factor(self, cpu: float, mem: float) -> float:
        """Task-duration multiplier for a device with the given scores.

        The strongest devices (score ~1) run at factor ~1; the weakest run up
        to ``max_slowdown`` times slower, with multiplicative log-normal noise
        so that two devices with identical scores still differ a little.
        """
        cfg = self.config
        capability = 0.6 * cpu + 0.4 * mem
        base = 1.0 + (cfg.max_slowdown - 1.0) * (1.0 - capability)
        noise = float(np.exp(self._rng.normal(0.0, 0.15)))
        return float(base * noise)

    def sample_devices(self, n: int, start_id: int = 0) -> DeviceFleet:
        """Sample a population of ``n`` devices with ids ``start_id`` on,
        as the columns of a :class:`~repro.core.types.DeviceFleet` (no
        :class:`~repro.core.types.DeviceProfile` is built)."""
        cfg = self.config
        data_domains, p_domain = cfg.data_domains, cfg.domain_probability
        num_domains = len(data_domains)
        random, beta, normal = self._rng.random, self._rng.beta, self._rng.normal
        scores = self.sample_scores(n)
        cpus, mems = scores[:, 0].copy(), scores[:, 1].copy()
        del scores
        speeds, reliabilities = np.empty(n), np.empty(n)
        domain_ids = np.empty(n, dtype=np.int32)
        # A block's domain uniforms, one row per device: ``random(out=row)``
        # draws exactly what ``len(row)`` scalar ``random()`` calls would.  The
        # row views are made once, not once per device.
        uniforms = np.empty((min(n, _BATCH), num_domains))
        rows = list(uniforms)
        # A device's domain hits packed into bytes (at least one, so that no
        # domains is a key too): the key of its combination, any width.
        masks = np.zeros((len(rows), num_domains // 8 + 1), np.uint8)
        key_type = f"V{masks.shape[1]}"
        # One frozenset per distinct combination, shared by every device that
        # drew it; its id is given the first time its mask turns up.
        by_mask: Dict[bytes, int] = {}
        domain_index: Dict[frozenset, int] = {}
        for lo in range(0, n, _BATCH):
            size = min(_BATCH, n - lo)
            block = slice(lo, lo + size)
            # One stream, draws interleaved per device (domains, reliability,
            # speed noise): the order is part of the seed's meaning.
            betas, noises = array("d"), array("d")
            for row in rows[:size]:
                random(out=row)
                betas.append(beta(9.0, 1.0))
                noises.append(normal(0.0, 0.15))
            masks[:size, : (num_domains + 7) // 8] = np.packbits(
                uniforms[:size] < p_domain, axis=1, bitorder="little"
            )
            keys = masks[:size].view(key_type).ravel().tolist()
            for key in set(keys).difference(by_mask):
                hits = np.unpackbits(
                    np.frombuffer(key, np.uint8), count=num_domains, bitorder="little"
                )
                domains = frozenset(compress(data_domains, hits.tolist()))
                by_mask[key] = domain_index.setdefault(domains, len(domain_index))
            domain_ids[block] = [by_mask[key] for key in keys]
            reliabilities[block] = np.clip(
                np.frombuffer(betas) * cfg.mean_reliability / 0.9, 0.0, 1.0
            )
            # speed_factor(cpu, mem), operation for operation.
            capability = 0.6 * cpus[block] + 0.4 * mems[block]
            base = 1.0 + (cfg.max_slowdown - 1.0) * (1.0 - capability)
            speeds[block] = base * np.exp(np.frombuffer(noises))
        return DeviceFleet(
            np.arange(start_id, start_id + n, dtype=np.int64),
            cpus,
            mems,
            speeds,
            reliabilities,
            domain_ids,
            tuple(domain_index),
        )

    # ------------------------------------------------------------------ #
    # Population statistics
    # ------------------------------------------------------------------ #
    @staticmethod
    def category_shares(devices: Sequence[DeviceProfile]) -> Dict[str, float]:
        """Fraction of devices *eligible* for each of the four categories.

        Note this is an eligibility share (General is always 1.0), not a
        partition: the categories nest, which is exactly what creates the
        contention patterns the paper studies.
        """
        if not devices:
            return {r.name: 0.0 for r in DEFAULT_CATEGORIES}
        n = len(devices)
        return {
            r.name: sum(1 for d in devices if r.is_eligible(d)) / n
            for r in DEFAULT_CATEGORIES
        }

    @staticmethod
    def model_eligibility_shares(
        devices: Sequence[DeviceProfile],
    ) -> Dict[str, float]:
        """Fraction of devices able to run each Figure-2b model."""
        if not devices:
            return {name: 0.0 for name in MODEL_REQUIREMENTS}
        n = len(devices)
        return {
            name: sum(1 for d in devices if req.is_eligible(d)) / n
            for name, req in MODEL_REQUIREMENTS.items()
        }


__all__ = [
    "CapacityConfig",
    "CapacitySampler",
    "DEFAULT_DATA_DOMAINS",
    "MODEL_REQUIREMENTS",
]
