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
gamma), walks the chain of starts, and has the scalar samplers of
:mod:`repro.traces.streams` — numpy's C slow paths, replicated — draw the
≈ 5 % of devices that leave a fast path from the words that follow their
start; a device that runs past the block starts the next one.  Everything
derived from the draws — domain sets, reliability, speed — is computed per
block in numpy, straight into the record buffer of the returned
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
from ..core.types import FLEET_RECORD, DeviceFleet, DeviceProfile
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
        # The fleet's records, filled in place: no second copy of a column.
        records = np.empty(n, dtype=FLEET_RECORD)
        records["device_id"] = np.arange(start_id, start_id + n, dtype=np.int64)
        scores = self.sample_scores(n)
        cpus, mems = records["cpu_score"], records["memory_score"]
        cpus[:], mems[:] = scores[:, 0], scores[:, 1]
        del scores
        # One frozenset per distinct combination, shared by every device that
        # drew it; its id is given in the first block its mask turns up in.
        by_mask: Dict[object, int] = {}
        domain_index: Dict[frozenset, int] = {}
        bit_generator = self._rng.bit_generator
        span = num_domains + 4
        # ``carry``: the words, drawn and not yet used, of a device that ran
        # past its block.  A device takes at least ``span`` words, and that
        # one more than ``carry`` holds, so no block draws a word past the
        # last device's: the generator is left where the per-device calls
        # leave it, with nothing to rewind.
        carry = np.empty(0, dtype=np.uint64)
        lo = 0
        while lo < n:
            size = max(span, len(carry) + 1, min(_BLOCK_WORDS, (n - lo) * span))
            words = np.concatenate((carry, bit_generator.random_raw(size - len(carry))))
            uniforms, betas, noises, used = _decode_block(words, num_domains, n - lo)
            carry = words[used:].copy()
            del words
            block = slice(lo, lo + len(betas))
            lo = block.stop
            records["domain_id"][block] = _domain_ids(
                uniforms < p_domain, data_domains, by_mask, domain_index
            )
            records["reliability"][block] = np.clip(
                betas * cfg.mean_reliability / 0.9, 0.0, 1.0
            )
            # Up to max_slowdown times slower on the weakest hardware, times
            # log-normal noise.
            capability = 0.6 * cpus[block] + 0.4 * mems[block]
            base = 1.0 + (cfg.max_slowdown - 1.0) * (1.0 - capability)
            records["speed_factor"][block] = base * np.exp(noises)
        return DeviceFleet.from_records(records, tuple(domain_index))

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
    words: np.ndarray, num_domains: int, want: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The draws of up to ``want`` devices decoded from ``words``, the next
    raw words of the sampler's stream, and the number of words they used.

    A device draws ``random(out=row)`` (``num_domains`` words), then
    ``beta(9, 1)`` — a gamma(9) by Marsaglia–Tsang (a normal ``X``, a
    uniform ``U``), then a gamma(1), an exponential — then ``normal(0,
    0.15)``: ``span = num_domains + 4`` words when every one of them takes
    numpy's first-try path.  Every word is tested as the start of such a
    device.  The chain of starts from word 0 then moves ``span`` words at a
    time, jumping straight to the first start on its residue mod ``span``
    that is not one; there the scalar samplers of
    :mod:`repro.traces.streams` draw the device from the words that follow,
    and the chain resumes at the word after the last one it took.  The
    block ends at the first device that runs past ``words``: its words,
    ``words[used:]``, start the next block.

    Returns ``(uniforms, betas, noises, used)``, one row per device in order.
    """
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
    # The chain as runs of fast devices (first word, count), each run but
    # the last followed by one device the scalar samplers drew.
    firsts: List[int] = []
    counts: List[int] = []
    slow_starts: List[int] = []
    slow_betas: List[float] = []
    slow_noises: List[float] = []
    pos, done = 0, 0
    while True:
        count = min((int(next_miss[pos]) - pos) // span, want - done)
        firsts.append(pos)
        counts.append(count)
        pos += count * span
        done += count
        if done == want:
            break
        # The device at ``pos`` leaves a fast path or runs past the words.
        drawn = _draw_device(words, pos + num_domains)
        if drawn is None:
            break
        slow_starts.append(pos)
        slow_betas.append(drawn[0])
        slow_noises.append(drawn[1])
        pos += num_domains + drawn[2]
        done += 1
    ends = np.cumsum(counts)
    starts = np.repeat(firsts, counts) + span * (
        np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    )
    q = starts + num_domains  # each fast device's X
    slow = np.zeros(int(ends[-1]) + len(slow_starts), dtype=bool)
    slow[ends[: len(slow_starts)] + np.arange(len(slow_starts))] = True
    fast_rows = ~slow
    betas, noises = np.empty(len(slow)), np.empty(len(slow))
    gamma = _GAMMA_B * cube[q]
    betas[fast_rows] = gamma / (gamma + e[q + 2])
    noises[fast_rows] = 0.0 + 0.15 * x[q + 3]  # numpy's loc + scale * z
    betas[slow], noises[slow] = slow_betas, slow_noises
    starts_all = np.empty(len(slow), dtype=np.intp)
    starts_all[fast_rows], starts_all[slow] = starts, slow_starts
    uniforms = sliding_window_view(u, num_domains)[starts_all]
    return uniforms, betas, noises, pos


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


def _draw_device(words: np.ndarray, at: int) -> Optional[Tuple[float, float, int]]:
    """``beta(9, 1)`` and ``normal(0, 0.15)`` drawn from ``words[at:]`` by
    the scalar samplers, with the number of words they took; ``None`` if
    they run past ``words``.  The words are read ahead as Python ints, a few
    more than the first-try path takes, and again further ahead in the rare
    case that the slow paths need more."""
    ahead = 12
    while True:
        chunk = words[at : at + ahead].tolist()
        source = iter(chunk)
        next_word = source.__next__
        try:
            gamma = streams.standard_gamma(next_word, 9.0)
            gamma_1 = streams.standard_exponential(next_word(), next_word)
            noise = 0.0 + 0.15 * streams.standard_normal(next_word(), next_word)
        except StopIteration:
            if at + ahead >= len(words):
                return None
            ahead *= 4
            continue
        beta = gamma / (gamma + gamma_1)
        return beta, noise, len(chunk) - operator.length_hint(source)


def _domain_ids(
    hits: np.ndarray,
    data_domains: Sequence[str],
    by_mask: Dict[object, int],
    domain_index: Dict[frozenset, int],
) -> np.ndarray:
    """The domain id of each row of ``hits`` (a device's domain draws under
    ``domain_probability``).  A mask not in ``by_mask`` is given the id of
    its set here (``domain_index``, in id order), shared by every mask that
    names the same set.

    A mask is its hits packed into bytes, at least one byte more than the
    domains need, so that no domains is a key too.  Up to 63 domains that is
    one ``int64``, and one ``np.unique`` over a block's masks (its sorting
    path) maps the devices to them; wider masks are ``bytes`` keys, looked
    up one device at a time."""
    num_domains = len(data_domains)
    width = 8 if num_domains <= 63 else num_domains // 8 + 1
    packed = np.zeros((len(hits), width), np.uint8)
    packed[:, : (num_domains + 7) // 8] = np.packbits(hits, axis=1, bitorder="little")
    if width == 8:
        masks, inverse = np.unique(packed.view("<i8").ravel(), return_inverse=True)
        keys = masks.tolist()
    else:
        keys = packed.view(f"V{width}").ravel().tolist()
    for key in set(keys).difference(by_mask):
        raw = key.to_bytes(8, "little") if width == 8 else key
        bits = np.unpackbits(
            np.frombuffer(raw, np.uint8), count=num_domains, bitorder="little"
        )
        domains = frozenset(compress(data_domains, bits.tolist()))
        by_mask[key] = domain_index.setdefault(domains, len(domain_index))
    ids = np.array([by_mask[key] for key in keys], dtype=np.int32)
    return ids[inverse] if width == 8 else ids


__all__ = [
    "CapacityConfig",
    "CapacitySampler",
    "DEFAULT_DATA_DOMAINS",
    "MODEL_REQUIREMENTS",
]
