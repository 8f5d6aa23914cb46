"""The scalar samplers of :mod:`repro.traces.streams` against numpy's own.

Both block-wise generators decode numpy's first-try paths as arrays and
finish every other draw with :func:`~repro.traces.streams.standard_exponential`,
:func:`~repro.traces.streams.standard_normal` and
:func:`~repro.traces.streams.standard_gamma` — numpy's C slow paths, operation
for operation.  Here:

* every slow branch runs from a PCG64 state built so that its next raw words
  take that branch, and must give numpy's variate and leave numpy's state;
* a 100,000-device capacity sample and availability day take every slow
  branch that arises at all (the gamma's ``V <= 0`` retry needs a normal
  below -8.8, which no real stream reaches), and both generators match the
  oracles of ``test_generator_oracles.py`` at small sizes besides;
* building inputs calls no numpy sampler: no ``Generator`` draw but the
  scores' one vectorised ``multivariate_normal``, no ``bit_generator.state``
  write and no ``advance``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import count
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.traces import capacity, streams
from repro.traces.device_trace import DAY, DiurnalAvailabilityModel, DiurnalConfig
from repro.traces.ziggurat import KE, KI, WI

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INVERSE = pow(_MULT, -1, 1 << 128)
_MASK = (1 << 128) - 1
_M64 = (1 << 64) - 1
_TOP = (1 << 53) - 1  # the largest 53-bit value: a uniform just below 1


def _output(state: int) -> int:
    hi = state >> 64
    value, rot = (hi ^ state) & _M64, hi >> 58
    return ((value >> rot) | (value << (64 - rot))) & _M64


def _state_with_output(word: int, hi: int) -> int:
    """The post-step state with high half ``hi`` that outputs ``word``."""
    rot = hi >> 58
    lo = ((word << rot) | (word >> (64 - rot))) & _M64 ^ hi
    return (hi << 64) | lo


def construct(
    at: int, words: Tuple[int, int], checks: Dict[int, Callable[[int], bool]]
) -> Tuple[int, int]:
    """A PCG64 ``(state, inc)`` whose raw outputs number ``at`` and ``at + 1``
    (counted from 1) are ``words`` and whose outputs at the positions of
    ``checks`` pass them.  Two outputs fix the increment; the others are
    searched for over the free high halves of those two states."""
    first, second = words
    for k in count(1):
        s_a = _state_with_output(first, (k * 0x9E3779B97F4A7C15) & _M64)
        hi_b = (k * 0xC2B2AE3D27D4EB4F + 1) & _M64
        s_b = _state_with_output(second, hi_b)
        if not (s_b - s_a * _MULT) & 1:  # the increment must be odd
            s_b = _state_with_output(second, hi_b ^ 1)
        inc = (s_b - s_a * _MULT) & _MASK
        states = {at: s_a, at + 1: s_b}
        for p in range(at - 1, 0, -1):
            states[p] = (states[p + 1] - inc) * _INVERSE & _MASK
        for p in range(at + 2, max(checks, default=0) + 1):
            states[p] = (states[p - 1] * _MULT + inc) & _MASK
        if all(check(_output(states[p])) for p, check in checks.items()):
            return (states[1] - inc) * _INVERSE & _MASK, inc


def uniform(u: int) -> int:
    """The raw word whose ``next_double`` is ``u * 2**-53``."""
    return u << 11


def exponential_word(idx: int, r: int) -> int:
    return ((r << 8) | idx) << 3


def normal_word(idx: int, rabs: int, negative: bool) -> int:
    return (rabs << 9) | (int(negative) << 8) | idx


def fast_normal_word(x: float) -> int:
    """A word that ``standard_normal`` maps to about ``x`` on its fast path."""
    for idx in range(2, 256):
        rabs = int(abs(x) / WI[idx])
        if rabs < KI[idx]:
            return normal_word(idx, rabs, x < 0)
    raise AssertionError(x)


def exp_fast(word: int) -> bool:
    ri = word >> 3
    return ri >> 8 < KE[ri & 0xFF]


def normal_fast(word: int) -> bool:
    return (word >> 9) & 0x000FFFFFFFFFFFFF < KI[word & 0xFF]


def normal_tail(word: int) -> bool:
    return not normal_fast(word) and word & 0xFF == 0


def not_low(word: int) -> bool:
    return word >> 62 != 0  # a uniform of 1/4 or more


#: Bit 8 of ``rabs`` (word bit 17), not the sign bit (word bit 8), signs a
#: variate from the normal's base-strip tail.
_TAIL_SIGN = 1 << 8

_ONE = range(2, 3)  # the first word and one uniform
_MORE = range(3, 99)


def case(sampler, words, taken, at=1, checks=None):
    """``(sampler, at, words, checks, words taken)``: the raw words at
    ``at`` and ``at + 1`` are ``words``; ``checks`` constrain others."""
    return sampler, at, words, checks or {}, taken


_TOP_EXP, _TOP_NOR = 2**53 - 1, 2**52 - 1  # the largest r and rabs

CASES = {
    # The base strip past its table: r - log1p(-U).
    "exponential tail": case(
        "exponential", (exponential_word(0, _TOP_EXP), uniform(2**52)), _ONE
    ),
    # At KE[idx], x is near the strip's inner edge, so exp(-x) clears F[idx]
    # for U = 0; at the outer edge it falls short of F[idx - 1] for U ~ 1.
    "exponential wedge accepts": case(
        "exponential", (exponential_word(100, int(KE[100])), uniform(0)), _ONE
    ),
    "exponential wedge rejects": case(
        "exponential", (exponential_word(100, _TOP_EXP), uniform(_TOP)), _MORE
    ),
    # U1 = 1/2 puts xx near 0.19: any U2 of 1/4 or more accepts.
    "normal tail": case(
        "normal",
        (normal_word(0, _TOP_NOR ^ _TAIL_SIGN, True), uniform(2**52)),
        range(3, 4),
        checks={3: not_low},
    ),
    "normal tail, negative": case(
        "normal",
        (normal_word(0, _TOP_NOR, False), uniform(2**52)),
        range(3, 4),
        checks={3: not_low},
    ),
    # U1 ~ 1 puts xx near 10: no U2 passes 2yy > xx², so the loop runs again.
    "normal tail loop": case(
        "normal", (normal_word(0, _TOP_NOR, False), uniform(_TOP)), range(5, 99)
    ),
    "normal wedge accepts": case(
        "normal", (normal_word(100, int(KI[100]), True), uniform(0)), _ONE
    ),
    "normal wedge rejects": case(
        "normal", (normal_word(100, _TOP_NOR, False), uniform(_TOP)), _MORE
    ),
    # X ~ 0.3, U = 1/4: under the squeeze 1 - 0.0331 X**4.
    "gamma squeeze": case("gamma", (fast_normal_word(0.3), uniform(2**51)), _ONE),
    # X ~ 2: the squeeze is about 0.47; U = 0.6 fails it, the log test passes.
    "gamma log test": case(
        "gamma", (fast_normal_word(2.0), uniform(int(0.6 * 2**53))), _ONE
    ),
    # U ~ 1 fails both: a second X and U follow.
    "gamma loop": case("gamma", (fast_normal_word(2.0), uniform(_TOP)), range(4, 99)),
    # X from the normal's tail below -1/c ~ -8.83 (U1 within 2**-28 of 1,
    # and U2 within 2**-25 of 1, so that the tail accepts it): V <= 0, and a
    # second X follows.
    "gamma V <= 0": case(
        "gamma",
        (uniform(_TOP - 2**25), uniform(_TOP - 2**28)),
        range(5, 99),
        at=2,
        checks={1: lambda w: normal_tail(w) and (w >> 9) & _TAIL_SIGN},
    ),
}

NUMPY = {
    "exponential": lambda rng: rng.standard_exponential(),
    "normal": lambda rng: rng.standard_normal(),
    "gamma": lambda rng: rng.standard_gamma(9.0),
}
OURS = {
    "exponential": lambda words: streams.standard_exponential(words(), words),
    "normal": lambda words: streams.standard_normal(words(), words),
    "gamma": lambda words: streams.standard_gamma(words, 9.0),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_slow_branch_is_numpys(case):
    sampler, at, words, checks, taken_range = CASES[case]
    state, inc = construct(at, words, checks)
    bit_generator = np.random.PCG64(0)
    numpy_state = bit_generator.state
    numpy_state["state"] = {"state": state, "inc": inc}
    bit_generator.state = numpy_state
    want = NUMPY[sampler](np.random.Generator(bit_generator))

    stream = streams._RowStream(state, inc)
    taken: List[int] = []

    def next_word() -> int:
        assert len(taken) < 1_000, "the sampler draws without end"
        taken.append(stream.next_word())
        return taken[-1]

    got = OURS[sampler](next_word)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert stream.state == bit_generator.state["state"]["state"]
    assert taken[at - 1 : at + 1] == list(words)
    assert len(taken) in taken_range, taken
    if case == "gamma V <= 0":
        assert streams.standard_normal(taken[0], iter(taken[1:]).__next__) < -8.9


def _branch_spies(monkeypatch) -> Counter:
    """Replace the three scalar samplers by wrappers that count the branch
    each call took, read off its first words and how many it used."""
    seen: Counter = Counter()
    exponential, normal, gamma = (
        streams.standard_exponential, streams.standard_normal, streams.standard_gamma
    )

    def counted(next_word, taken):
        def draw():
            assert len(taken) < 1_000, "a sampler draws without end"
            taken.append(next_word())
            return taken[-1]

        return draw

    def spy_exponential(word, next_word):
        taken: List[int] = []
        value = exponential(word, counted(next_word, taken))
        if exp_fast(word):
            pass  # a draw of a device the capacity sampler finishes
        elif word >> 3 & 0xFF == 0:
            seen["exponential tail"] += 1
        else:
            verdict = "accepts" if len(taken) == 1 else "rejects"
            seen["exponential wedge " + verdict] += 1
        return value

    def spy_normal(word, next_word):
        taken: List[int] = []
        value = normal(word, counted(next_word, taken))
        if normal_fast(word):
            pass  # a draw of a device the capacity sampler finishes
        elif word & 0xFF == 0:
            seen["normal tail" + (" loop" if len(taken) > 2 else "")] += 1
        else:
            seen["normal wedge " + ("accepts" if len(taken) == 1 else "rejects")] += 1
        return value

    def spy_gamma(next_word, shape):
        taken: List[int] = []
        value = gamma(counted(next_word, taken), shape)
        if normal_fast(taken[0]):
            x = normal(taken[0], None)
            u = (taken[1] >> 11) * 2.0**-53
            if len(taken) > 2:
                seen["gamma loop"] += 1
            elif u < 1.0 - 0.0331 * (x * x) * (x * x):
                seen["gamma squeeze"] += 1
            else:
                seen["gamma log test"] += 1
        return value

    monkeypatch.setattr(streams, "standard_exponential", spy_exponential)
    monkeypatch.setattr(streams, "standard_normal", spy_normal)
    monkeypatch.setattr(streams, "standard_gamma", spy_gamma)
    return seen


def test_every_slow_branch_runs_at_100k(monkeypatch):
    """A 100,000-device population and day, as a ``static_100k`` cell builds
    them, take every slow branch but the gamma's ``V <= 0`` retry."""
    seen = _branch_spies(monkeypatch)
    fleet = capacity.CapacitySampler(seed=7).sample_devices(100_000)
    model = DiurnalAvailabilityModel(DiurnalConfig(horizon=DAY), seed=8)
    trace = model.generate(100_000)
    assert len(fleet) == 100_000 and len(trace)
    assert set(seen) == set(CASES) - {"normal tail, negative", "gamma V <= 0"}, seen


class _Recorder:
    """Forwards every attribute to ``target`` and records its name."""

    def __init__(self, target, log: List[str], prefix: str = "") -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_prefix", prefix)

    def __getattr__(self, name):
        self._log.append(self._prefix + name)
        value = getattr(self._target, name)
        if name == "bit_generator":
            return _Recorder(value, self._log, "bit_generator.")
        return value

    def __setattr__(self, name, value):
        self._log.append(self._prefix + name + "=")
        setattr(self._target, name, value)


def test_building_inputs_calls_no_numpy_sampler(monkeypatch):
    """The sampler reads its stream as raw words alone (its scores are one
    vectorised ``multivariate_normal``), and the availability model touches
    no numpy generator at all: no scalar draw, no ``state`` write, no
    ``advance`` — and the inputs still match a sampler left alone."""
    sampler = capacity.CapacitySampler(seed=7)
    log: List[str] = []
    monkeypatch.setattr(sampler, "_rng", _Recorder(sampler._rng, log))
    fleet = sampler.sample_devices(20_000)
    assert fleet == capacity.CapacitySampler(seed=7).sample_devices(20_000)
    assert set(log) == {
        "multivariate_normal", "bit_generator", "bit_generator.random_raw"
    }
    assert log.count("multivariate_normal") == 1

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy generator was built")

    model = DiurnalAvailabilityModel(DiurnalConfig(horizon=DAY), seed=8)
    want = model.generate(20_000)
    for name in ("Generator", "PCG64", "default_rng", "SeedSequence"):
        monkeypatch.setattr(np.random, name, refuse)
    got = model.generate(20_000)
    for column in ("device_ids", "starts", "ends"):
        assert np.array_equal(getattr(got, column), getattr(want, column))
