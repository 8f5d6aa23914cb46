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

:meth:`CapacitySampler.sample_devices` decodes its draws from raw words.  A
device draws, in the seed's order, its domain uniforms (one
``random(out=row)``), then ``beta(9, 1)``, then ``normal(0, 0.15)``, all from
the sampler's one stream: device k's draws start where device k - 1's ended.
When every draw takes numpy's first-try path a device uses exactly
``len(data_domains) + 4`` words, so the sampler draws the stream a block of
``bit_generator.random_raw`` words at a time, tests every word as a device
start with numpy's own arithmetic (the word decoders of
:mod:`repro.traces.streams`, Marsaglia–Tsang's squeeze and log test for the
gamma), walks the chain of starts, and has numpy's scalar calls draw the ≈ 5 %
of devices that leave a fast path or run past the block.  Everything derived
from the draws — domain sets, reliability, speed — is computed per block in
numpy, straight into the columns of the returned
:class:`~repro.core.types.DeviceFleet`; no ``DeviceProfile`` is built.
``_BLOCK_WORDS`` is a memory bound: it caps the block's transients, not the
work.  The per-device loop survives only as the oracle of
``tests/traces/test_generator_oracles.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.requirements import DEFAULT_CATEGORIES, EligibilityRequirement
from ..core.types import DeviceFleet, DeviceProfile
from . import streams

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

#: Raw words decoded per block: bounds the block's transients whatever
#: ``len(data_domains)`` is.
_BLOCK_WORDS = 1 << 16

#: Marsaglia–Tsang's constants for ``beta(9, 1)``'s gamma(9), as numpy's C
#: computes them.
_GAMMA_B = 9.0 - 1.0 / 3.0
_GAMMA_C = 1.0 / math.sqrt(9.0 * _GAMMA_B)


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

    def sample_devices(self, n: int, start_id: int = 0) -> DeviceFleet:
        """Sample a population of ``n`` devices with ids ``start_id`` on,
        as the columns of a :class:`~repro.core.types.DeviceFleet` (no
        :class:`~repro.core.types.DeviceProfile` is built)."""
        n, start_id = operator.index(n), operator.index(start_id)
        if start_id < 0 or start_id + n > 2**63:
            raise ValueError(
                f"device ids must lie in [0, 2**63) (got {n} from {start_id})"
            )
        cfg = self.config
        data_domains, p_domain = cfg.data_domains, cfg.domain_probability
        num_domains = len(data_domains)
        scores = self.sample_scores(n)
        cpus, mems = scores[:, 0].copy(), scores[:, 1].copy()
        del scores
        speeds, reliabilities = np.empty(n), np.empty(n)
        domain_ids = np.empty(n, dtype=np.int32)
        key_bytes = num_domains // 8 + 1
        # One frozenset per distinct combination, shared by every device that
        # drew it; its id is given the first time its mask turns up.
        by_mask: Dict[bytes, int] = {}
        domain_index: Dict[frozenset, int] = {}
        bit_generator = self._rng.bit_generator
        span = num_domains + 4
        lo = 0
        while lo < n:
            # ``span`` words a device unless it is replayed: one spare each.
            left = n - lo
            words = bit_generator.random_raw(
                max(span, min(_BLOCK_WORDS, left * (span + 1)))
            )
            uniforms, betas, noises = _decode_block(self._rng, words, num_domains, left)
            del words
            block = slice(lo, lo + len(betas))
            lo = block.stop
            # A device's domain hits packed into bytes (at least one, so that
            # no domains is a key too): the key of its combination, any width.
            masks = np.zeros((len(betas), key_bytes), np.uint8)
            masks[:, : (num_domains + 7) // 8] = np.packbits(
                uniforms < p_domain, axis=1, bitorder="little"
            )
            keys = masks.view(f"V{key_bytes}").ravel().tolist()
            for key in set(keys).difference(by_mask):
                hits = np.unpackbits(
                    np.frombuffer(key, np.uint8), count=num_domains, bitorder="little"
                )
                domains = frozenset(compress(data_domains, hits.tolist()))
                by_mask[key] = domain_index.setdefault(domains, len(domain_index))
            domain_ids[block] = [by_mask[key] for key in keys]
            reliabilities[block] = np.clip(
                betas * cfg.mean_reliability / 0.9, 0.0, 1.0
            )
            # Up to max_slowdown times slower on the weakest hardware, times
            # log-normal noise.
            capability = 0.6 * cpus[block] + 0.4 * mems[block]
            base = 1.0 + (cfg.max_slowdown - 1.0) * (1.0 - capability)
            speeds[block] = base * np.exp(noises)
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


def _decode_block(
    rng: np.random.Generator, words: np.ndarray, num_domains: int, want: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of up to ``want`` devices, decoded from ``words``: the raw
    words that ``rng``'s stream holds next, already drawn, so ``rng`` sits
    past them.

    A device draws ``random(out=row)`` (``num_domains`` words), then
    ``beta(9, 1)`` — a gamma(9) by Marsaglia–Tsang (a normal ``X``, a
    uniform ``U``), then a gamma(1), an exponential — then ``normal(0,
    0.15)``: ``span = num_domains + 4`` words when every one of them takes
    numpy's first-try path.  Every word is tested as the start of such a
    device.  The chain of starts from word 0 then moves ``span`` words at a
    time, jumping straight to the first start on its residue mod ``span``
    that is not one; there numpy's scalar calls draw the device, and the
    chain resumes where the words the generator draws next sit in
    ``words``.

    Returns ``(uniforms, betas, noises)``, one row per device in order, and
    leaves ``rng`` where the per-device calls would have left it.
    (``advance`` also clears PCG64's buffered half of a 32-bit draw; the
    sampler never draws 32-bit values, so there is none to lose.)
    """
    bit_generator = rng.bit_generator
    size, span = len(words), num_domains + 4
    u = streams.decode_random(words)
    x, x_fast = streams.decode_standard_normal(words)
    e, e_fast = streams.decode_standard_exponential(words)
    # Word q as a device's X: U is word q + 1, the exponential q + 2, the
    # noise q + 3.  numpy's C, operation for operation: V = (1 + cX)**3 as
    # two products, the squeeze 1 - 0.0331 X**4 as (0.0331 X²) X² (a numpy
    # build that fused these multiply-adds would fail the oracle tests).
    m = size - 3
    v = x[:m] * _GAMMA_C
    v += 1.0
    cube = v * v
    cube *= v
    xx = x[:m] * x[:m]
    squeeze = xx * 0.0331
    squeeze *= xx
    np.subtract(1.0, squeeze, out=squeeze)
    fast = x_fast[:m] & e_fast[2 : m + 2]
    fast &= x_fast[3:]
    tested = np.flatnonzero(fast & (u[1 : m + 1] >= squeeze))
    fast[tested] = _log_accepts(u[tested + 1], x[tested], cube[tested])
    del v, xx, squeeze
    # Per word, the first start at or after it on its residue mod ``span``
    # that is not a fast device (the last ``span - 1`` words cannot hold
    # one): each word's own index where it misses, minimum-accumulated up
    # the ``span`` columns of the grid of words from the end.
    rows = size // span + 1
    miss = np.ones(rows * span, dtype=bool)
    miss[: size - span + 1] = ~fast[num_domains:]
    next_miss = np.where(miss, np.arange(rows * span), rows * span)
    grid = next_miss.reshape(rows, span)[::-1]
    np.minimum.accumulate(grid, axis=0, out=grid)
    del miss, grid
    raw = words.tobytes()
    # The chain as runs of fast devices (first word, count), each run but
    # the last followed by one replayed device.
    firsts: List[int] = []
    counts: List[int] = []
    replays = []
    pos, at, done = 0, size, 0  # ``at``: the generator's word
    while True:
        count = min((int(next_miss[pos]) - pos) // span, want - done)
        firsts.append(pos)
        counts.append(count)
        pos += count * span
        done += count
        bit_generator.advance(pos - at)
        if done == want:
            break
        # The device at ``pos`` leaves a fast path or runs past the buffer.
        replays.append(_replay(rng, num_domains))
        done += 1
        if done == want:
            break
        pos = _find(raw, pos + span, bit_generator.random_raw(2).tobytes())
        if pos < 0:  # past the buffer: the next block starts here
            bit_generator.advance(-2)
            break
        at = pos + 2
    ends = np.cumsum(counts)
    starts = np.repeat(firsts, counts) + span * (
        np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    )
    q = starts + num_domains  # each fast device's X
    replayed = np.zeros(int(ends[-1]) + len(replays), dtype=bool)
    replayed[ends[: len(replays)] + np.arange(len(replays))] = True
    drawn = ~replayed
    uniforms = np.empty((len(replayed), num_domains))
    betas, noises = np.empty(len(replayed)), np.empty(len(replayed))
    uniforms[drawn] = sliding_window_view(u, num_domains)[starts]
    gamma = _GAMMA_B * cube[q]
    betas[drawn] = gamma / (gamma + e[q + 2])
    noises[drawn] = 0.0 + 0.15 * x[q + 3]  # numpy's loc + scale * z
    if replays:
        rows_drawn, betas_drawn, noises_drawn = zip(*replays)
        uniforms[replayed] = rows_drawn
        betas[replayed], noises[replayed] = betas_drawn, noises_drawn
    return uniforms, betas, noises


def _log_accepts(u: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Marsaglia–Tsang's log test ``log(U) < X²/2 + b(1 - V + log V)``, as
    numpy's C evaluates it with libm's ``log`` (``v`` is ``V`` once cubed, as
    the C names it).  ``np.log`` may differ from that in the last bit, so
    near-ties are decided again by :func:`math.log` (which is libm's)."""
    with np.errstate(divide="ignore"):
        lhs = np.log(u)
    rhs = 0.5 * x * x + _GAMMA_B * ((1.0 - v) + np.log(v))
    accepts = lhs < rhs
    # np.log is within a few ulps of libm; 1e-9 is far wider than that.
    for k in np.flatnonzero(np.abs(lhs - rhs) <= 1e-9).tolist():
        xk, vk = float(x[k]), float(v[k])
        accepts[k] = math.log(u[k]) < 0.5 * xk * xk + _GAMMA_B * (
            (1.0 - vk) + math.log(vk)
        )
    return accepts


def _replay(
    rng: np.random.Generator, num_domains: int
) -> Tuple[np.ndarray, float, float]:
    """One device's draws by numpy's own calls, from where ``rng`` sits."""
    return rng.random(num_domains), rng.beta(9.0, 1.0), rng.normal(0.0, 0.15)


def _find(raw: bytes, lo: int, following: bytes) -> int:
    """The first word from ``lo`` at which ``raw``, a buffer of words as
    bytes, holds the two words ``following``, or -1.  Two words, so that a
    chance repeat of the stream's output (2**-128 a position) cannot pass
    for the resume point."""
    at = raw.find(following, 8 * lo)
    while at > 0 and at % 8:
        at = raw.find(following, at + 1)
    return at // 8


__all__ = [
    "CapacityConfig",
    "CapacitySampler",
    "DEFAULT_DATA_DOMAINS",
    "MODEL_REQUIREMENTS",
]
