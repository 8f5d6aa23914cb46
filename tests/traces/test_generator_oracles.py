"""The block-wise trace generators against their per-device predecessors.

``sample_devices`` (with the ``speed_factor`` it called) and ``_columns``
below are the bodies the capacity sampler and the availability model had
before they drew a device's domain uniforms with one ``random(out=row)``,
derived domains, reliability and speed per block of devices and then decoded
their one stream from raw words, and drew sessions as standard variates and
then for a block of devices in lockstep.  They survive here, and only here,
as the oracles the generators must match number for number — the generator
state they leave included — the way ``test_streams.py`` keeps numpy's
``SeedSequence`` construction.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.types import DeviceProfile
from repro.traces import capacity, device_trace, streams
from repro.traces.capacity import DEFAULT_DATA_DOMAINS, CapacityConfig, CapacitySampler
from repro.traces.device_trace import DAY, DiurnalAvailabilityModel, DiurnalConfig
from tests.traces.test_streams import device_streams


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


def sample_devices(self, n: int, start_id: int = 0) -> List[DeviceProfile]:
    """Sample a population of ``n`` devices."""
    cfg = self.config
    data_domains, p_domain = cfg.data_domains, cfg.domain_probability
    mean_reliability = cfg.mean_reliability
    random, beta = self._rng.random, self._rng.beta
    devices: List[DeviceProfile] = []
    # One frozenset per distinct domain combination (at most
    # 2**len(data_domains)), shared by every device that drew it.
    shared: Dict[frozenset, frozenset] = {}
    # One stream, draws interleaved per device (domains, reliability,
    # speed noise): the order is part of the seed's meaning.  The scores
    # are two flat columns, not n two-element lists that die with the loop.
    cpus, mems = self.sample_scores(n).T.tolist()
    for k, (cpu, mem) in enumerate(zip(cpus, mems), start_id):
        domains = frozenset([d for d in data_domains if random() < p_domain])
        domains = shared.setdefault(domains, domains)
        reliability = beta(9.0, 1.0) * mean_reliability / 0.9
        if reliability > 1.0:
            reliability = 1.0
        elif reliability < 0.0:
            reliability = 0.0
        devices.append(
            DeviceProfile(k, cpu, mem, speed_factor(self, cpu, mem), domains, reliability)
        )
    return devices


def _columns(self, device_ids: Sequence[int]) -> Tuple[array, array, array]:
    """Session columns of the listed devices, device by device.

    Per device: a random initial phase (so devices are not synchronised),
    then exponential offline gaps alternating with log-normal sessions.
    With online fraction ``p`` and mean session ``s`` the mean gap is
    ``s * (1 - p) / p``, which makes the stationary online fraction track
    :meth:`DiurnalConfig.availability_at`.
    """
    cfg = self.config
    horizon = cfg.horizon
    mid = (cfg.peak_availability + cfg.trough_availability) / 2.0
    amp = (cfg.peak_availability - cfg.trough_availability) / 2.0
    two_pi, peak_phase = 2.0 * np.pi, cfg.peak_hour / 24.0
    mean_session = cfg.median_session * float(np.exp(cfg.session_sigma**2 / 2))
    log_median, sigma = np.log(cfg.median_session), cfg.session_sigma
    cos, exp = np.cos, np.exp

    def mean_gap(t: float) -> float:  # cfg.availability_at(t), constants hoisted
        p = max(1e-3, mid + amp * float(cos(two_pi * ((t / DAY) - peak_phase))))
        return mean_session * (1.0 - p) / p

    first_gap = mean_gap(0.0)
    # Typed columns: boxed list items would die as holes once copied.
    ids, starts, ends = array("q"), array("d"), array("d")
    for dev, rng in zip(device_ids, device_streams(self._entropy, device_ids)):
        exponential, normal = rng.exponential, rng.normal
        t = rng.uniform(0.0, first_gap)
        while t < horizon:
            start = t + exponential(mean_gap(t))
            if start >= horizon:
                break
            t = min(start + float(exp(normal(log_median, sigma))), horizon)
            if t > start:
                ids.append(dev)
                starts.append(start)
                ends.append(t)
    return ids, starts, ends


# --------------------------------------------------------------------------- #
# Capacity sampler
# --------------------------------------------------------------------------- #
#: Around the derivation block of 4,096 devices, plus small drawn sizes; the
#: block edges also run as explicit examples, so every run has them.
SIZES = st.one_of(st.sampled_from([1, 4095, 4096, 4097]), st.integers(1, 300))
#: More domains than one 64-bit mask holds.
SEVENTY = tuple(f"d{i}" for i in range(70))
#: A repeated name: two masks, one set — still one shared object.
REPEATED = ("keyboard", "emoji", "keyboard")
DOMAINS = st.sampled_from([(), ("keyboard",), REPEATED, DEFAULT_DATA_DOMAINS, SEVENTY])
PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
RELIABILITY = st.one_of(st.just(1.0), st.floats(0.05, 1.0))
SLOWDOWN = st.one_of(st.just(1.0), st.floats(1.0, 20.0))


def _fields(d: DeviceProfile):
    return (d.device_id, d.cpu_score, d.memory_score, d.speed_factor,
            d.data_domains, d.reliability)


@given(
    seed=st.integers(0, 2**64 - 1),
    n=SIZES,
    start_id=st.integers(0, 2**40),
    data_domains=DOMAINS,
    domain_probability=PROBABILITY,
    mean_reliability=RELIABILITY,
    max_slowdown=SLOWDOWN,
)
@example(seed=0, n=1, start_id=0, data_domains=("keyboard",),
         domain_probability=1.0, mean_reliability=1.0, max_slowdown=1.0)
@example(seed=4, n=300, start_id=0, data_domains=REPEATED,
         domain_probability=0.5, mean_reliability=0.9, max_slowdown=6.0)
@example(seed=1, n=4095, start_id=100, data_domains=DEFAULT_DATA_DOMAINS,
         domain_probability=0.35, mean_reliability=0.9, max_slowdown=6.0)
@example(seed=2, n=4096, start_id=7, data_domains=(),
         domain_probability=0.0, mean_reliability=1.0, max_slowdown=6.0)
@example(seed=3, n=4097, start_id=2**40, data_domains=SEVENTY,
         domain_probability=0.5, mean_reliability=0.9, max_slowdown=1.0)
@settings(max_examples=30, deadline=None)
def test_sample_devices_matches_the_per_device_oracle(
    seed, n, start_id, data_domains, domain_probability, mean_reliability, max_slowdown
):
    config = CapacityConfig(
        data_domains=data_domains,
        domain_probability=domain_probability,
        mean_reliability=mean_reliability,
        max_slowdown=max_slowdown,
    )
    new, old = CapacitySampler(config, seed), CapacitySampler(config, seed)
    devices = new.sample_devices(n, start_id=start_id)
    reference = sample_devices(old, n, start_id=start_id)
    assert len(devices) == n
    for got, want in zip(devices, reference):
        assert _fields(got) == _fields(want)
    # The generator is left where the oracle left it: later draws agree too.
    assert new._rng.bit_generator.state == old._rng.bit_generator.state
    # One shared frozenset per distinct combination, never one per device.
    combinations = {d.data_domains for d in devices}
    assert len({id(d.data_domains) for d in devices}) == len(combinations)


@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("num_domains", [0, 6, 70])
def test_block_size_is_invisible(monkeypatch, block, num_domains):
    """Buffers shorter than one device (a device's words are carried over
    until it fits), many short ones and a ragged last one give the oracle's
    population too."""
    config = CapacityConfig(data_domains=SEVENTY[:num_domains])
    reference = sample_devices(CapacitySampler(config, 11), 200, start_id=5)
    monkeypatch.setattr(capacity, "_BLOCK_WORDS", block)
    devices = CapacitySampler(config, 11).sample_devices(200, start_id=5)
    assert [_fields(d) for d in devices] == [_fields(d) for d in reference]


def test_seventy_domains_intern_without_overflow():
    """70 domains do not fit one 64-bit mask; every device still gets the
    oracle's set, and two devices that drew the same set share it."""
    config = CapacityConfig(data_domains=SEVENTY, domain_probability=0.02)
    devices = CapacitySampler(config, 3).sample_devices(5_000)
    reference = sample_devices(CapacitySampler(config, 3), 5_000)
    assert [d.data_domains for d in devices] == [d.data_domains for d in reference]
    assert {"d0", "d69"} <= set().union(*(d.data_domains for d in devices))
    combinations = {d.data_domains for d in devices}
    assert len(combinations) < 5_000  # sets repeat, so sharing is exercised
    assert len({id(d.data_domains) for d in devices}) == len(combinations)


def _assert_matches_oracle(config, seed, n, start_id=0):
    new, old = CapacitySampler(config, seed), CapacitySampler(config, seed)
    devices = new.sample_devices(n, start_id=start_id)
    reference = sample_devices(old, n, start_id=start_id)
    assert [_fields(d) for d in devices] == [_fields(d) for d in reference]
    assert new._rng.bit_generator.state == old._rng.bit_generator.state


def _spy(monkeypatch, name):
    """Replace ``capacity.<name>`` by a wrapper that records each result."""
    seen = []
    function = getattr(capacity, name)

    def spy(*args):
        seen.append(function(*args))
        return seen[-1]

    monkeypatch.setattr(capacity, name, spy)
    return seen


@pytest.mark.parametrize("num_domains", [0, 6, 70])
def test_misses_are_drawn_by_the_scalar_samplers(monkeypatch, num_domains):
    """On 5,000 devices some leave a fast path or straddle a buffer's end;
    the scalar samplers draw them from the words that follow their start,
    and the population and the generator's state are the per-device
    loop's."""
    seen = _spy(monkeypatch, "_draw_device")
    _assert_matches_oracle(CapacityConfig(data_domains=SEVENTY[:num_domains]), 5, 5_000)
    drawn = [d for d in seen if d is not None]
    assert 100 < len(drawn) < 500
    # The first-try path takes four words; the slow ones took more.
    assert max(used for _, _, used in drawn) > 4


def test_a_squeeze_reject_the_log_test_accepts(monkeypatch):
    """Marsaglia–Tsang's squeeze rejects some X, U pairs that its log test
    then accepts: those devices are decoded, not replayed."""
    verdicts = _spy(monkeypatch, "_log_accepts")
    _assert_matches_oracle(CapacityConfig(), 6, 5_000)
    accepted = np.concatenate(verdicts)
    assert accepted.any() and not accepted.all()


def test_a_buffer_that_runs_short(monkeypatch):
    """8,000 devices need more words than one buffer holds: the first block
    ends at a device that runs past its buffer, whose words start the next
    block; the last blocks draw just the words their devices still need."""
    blocks = _spy(monkeypatch, "_decode_block")
    _assert_matches_oracle(CapacityConfig(), 8, 8_000, start_id=3)
    sizes = [len(betas) for _, betas, _, _ in blocks]
    assert len(sizes) > 2 and sum(sizes) == 8_000
    assert 0 < sizes[0] < 8_000 and blocks[0][3] < capacity._BLOCK_WORDS


@pytest.mark.parametrize("towards", [-np.inf, np.inf])
@pytest.mark.parametrize("x", [-2.0, -1.0, 0.5, 1.5, 2.5])
def test_log_test_near_ties_follow_libm(monkeypatch, x, towards):
    """Around ``U = exp(rhs)`` the two sides of the log test agree to the
    last bits; the decision is libm's (``math.log``) even where ``np.log``
    rounds the other way (here: made to, one ulp off)."""
    b, c = capacity._GAMMA_B, capacity._GAMMA_C
    v = 1.0 + c * x
    v = v * v * v
    rhs = 0.5 * x * x + b * ((1.0 - v) + math.log(v))
    tie = math.exp(rhs)
    u = tie + np.arange(-3, 4) * np.spacing(tie)
    log = np.log
    monkeypatch.setattr(np, "log", lambda a: np.nextafter(log(a), towards))
    got = capacity._log_accepts(u, np.full(7, x), np.full(7, v))
    assert got.tolist() == [math.log(k) < rhs for k in u.tolist()]


# --------------------------------------------------------------------------- #
# Availability model
# --------------------------------------------------------------------------- #
#: Shorter than the first gap (~24,500 s at the defaults), a day, four days.
HORIZONS = st.one_of(st.sampled_from([DAY, 4 * DAY]), st.floats(1.0, 20_000.0))
SPARSE_IDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=60, unique=True)


@st.composite
def diurnal_configs(draw):
    # Troughs under 1e-3 reach the floor on the online fraction.
    trough = draw(st.one_of(st.floats(1e-5, 1e-3), st.floats(1e-3, 0.5)))
    return DiurnalConfig(
        horizon=draw(HORIZONS),
        trough_availability=trough,
        peak_availability=draw(st.floats(trough, 1.0)),
        peak_hour=draw(st.floats(0.0, 24.0)),
        median_session=draw(st.floats(60.0, 6 * 3600.0)),
        session_sigma=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
    )


def _assert_same_columns(model, device_ids):
    for got, want in zip(model._columns(device_ids), _columns(model, device_ids)):
        assert np.array_equal(np.asarray(got), np.asarray(want))


@given(seed=st.integers(0, 2**64 - 1), config=diurnal_configs(), device_ids=SPARSE_IDS)
@example(seed=8, config=DiurnalConfig(horizon=60.0), device_ids=[2**32 - 1, 0, 77, 5])
@example(seed=8, config=DiurnalConfig(), device_ids=[(k * 2654435761) % 2**32 for k in range(1, 50)])
@settings(max_examples=40, deadline=None)
def test_columns_match_the_per_device_oracle(seed, config, device_ids):
    _assert_same_columns(DiurnalAvailabilityModel(config, seed), device_ids)


#: The lockstep block of 16,384 devices: one short of it, one, one over.
BLOCK_EDGES = st.sampled_from([2**14 - 1, 2**14, 2**14 + 1])


@given(
    seed=st.integers(0, 2**64 - 1), n=st.one_of(SIZES, BLOCK_EDGES), horizon=HORIZONS
)
@example(seed=0, n=1, horizon=DAY)
@example(seed=1, n=4095, horizon=100.0)
@example(seed=2, n=4096, horizon=4 * DAY)
@example(seed=3, n=4097, horizon=DAY)
@example(seed=4, n=2**14 - 1, horizon=DAY)
@example(seed=5, n=2**14, horizon=2 * DAY)
@example(seed=6, n=2**14 + 1, horizon=DAY)
@settings(max_examples=10, deadline=None)
def test_columns_match_across_the_seeding_batch(seed, n, horizon):
    model = DiurnalAvailabilityModel(DiurnalConfig(horizon=horizon), seed)
    _assert_same_columns(model, range(n))


@pytest.mark.parametrize("block", [1, 3, 64])
def test_lockstep_block_is_invisible(monkeypatch, block):
    """Many short blocks and a ragged last one give the oracle's columns."""
    model = DiurnalAvailabilityModel(DiurnalConfig(horizon=2 * DAY), 21)
    ids = [(k * 2654435761) % 2**32 for k in range(200)]
    monkeypatch.setattr(device_trace, "_BLOCK", block)
    _assert_same_columns(model, ids)


def test_a_day_resolves_both_slow_draws(monkeypatch):
    """A 2,000-device day misses the ziggurat fast path for some exponential
    and some normal draws, so the lockstep streams' scalar samplers run in
    every test run — and the columns still match the oracle."""
    resolved = []

    def spy(sample):
        def draw(word, next_word):
            resolved.append(sample.__name__)
            return sample(word, next_word)

        return draw

    for name in ("standard_exponential", "standard_normal"):
        monkeypatch.setattr(streams, name, spy(getattr(streams, name)))
    model = DiurnalAvailabilityModel(DiurnalConfig(horizon=DAY), 7)
    _assert_same_columns(model, range(2_000))
    assert set(resolved) == {"standard_exponential", "standard_normal"}
