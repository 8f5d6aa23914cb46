"""Per-device PCG64 streams, stepped in lockstep as numpy columns, and the
word decoders numpy's draws reduce to on their fast paths.

Every device draws from its own stream, numpy's
``default_rng(SeedSequence(entropy, spawn_key=(device_id,)))``.  Because the
streams are independent, a block of devices can advance together: one row of
``uint64`` limbs per device, one vectorised step per draw, and every row
produces exactly the numbers its own ``Generator`` would.
``tests/traces/test_streams.py`` holds numpy's own construction as the
oracle.

:func:`seed_states` runs numpy's ``SeedSequence`` hash over all the ids at
once: it hashes the ``uint32`` words ``(entropy..., zero padding to the pool
size, device_id)`` with multipliers that evolve per call, never per value, so
the entropy words hash as Python ints and the last word as one ``uint32``
array holding every device id.  PCG64's ``srandom`` and its step are 128-bit
multiply-adds, done as 64-bit limbs with the ``64 x 64 -> 128`` product split
into 32-bit halves.

:func:`decode_random`, :func:`decode_standard_exponential` and
:func:`decode_standard_normal` turn an array of raw PCG64 output words into
what numpy's ``random()`` and the fast paths of its ziggurat
``standard_exponential`` / ``standard_normal`` make of each word (tables in
:mod:`repro.traces.ziggurat`), with a mask of the words the fast path
accepts.  Both block-wise generators decode with them: :class:`LockstepPCG64`
one word per row, the capacity sampler one buffer of its single stream.

The draws a fast path does not accept — 1–2 % of ziggurat words, and the
capacity sampler's gamma rejections — are finished by
:func:`standard_exponential`, :func:`standard_normal` and
:func:`standard_gamma`: numpy's C samplers replicated over a word source,
in the same operation order and with :mod:`math`'s ``exp``/``log``/``log1p``,
which are libm's, as numpy's C calls.  :class:`LockstepPCG64` runs them on a
missed row's own 128-bit state, stepped as one Python int, and writes the
state back — so every row stays in lockstep; the capacity sampler runs them
on the words that follow a device's start in its buffer.  numpy's scalar
sampler is never called.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

from .ziggurat import FE, FI, KE, KI, WE, WI

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1

_U32 = np.uint64(_MASK32)
_SHIFT32, _SHIFT58 = np.uint64(32), np.uint64(58)
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO0, _MULT_LO1 = _MULT_LO & _U32, _MULT_LO >> _SHIFT32

# The scalar samplers' tables as Python numbers, and numpy's ziggurat
# constants (``ziggurat_constants.h``: the base strip's edge ``r`` and 1/r).
_KE, _WE, _FE = KE.tolist(), WE.tolist(), FE.tolist()
_KI, _WI, _FI = KI.tolist(), WI.tolist(), FI.tolist()
_EXP_R = 7.6971174701310497140446280481
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
_TO_DOUBLE = 1.0 / 9007199254740992.0

#: The ``uint64`` limb columns of some streams, one entry per stream:
#: ``(state_hi, state_lo, inc_hi, inc_lo)``.
Limbs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _hash_consts(const: int, mult: int) -> Iterator[Tuple[int, int]]:
    """The ``(xor, multiply)`` constants of successive ``hashmix`` calls."""
    while True:
        const, xor = (const * mult) & _MASK32, const
        yield xor, const


def _hashmix(value, consts):
    """One hash step; ``value`` is a Python int or a ``uint32`` array (whose
    arithmetic wraps, making the masks no-ops)."""
    xor, mul = next(consts)
    value = ((value ^ xor) * mul) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (((_MIX_L * x) & _MASK32) - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _step(
    state_hi: np.ndarray, state_lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(state * _PCG_MULT + inc) mod 2**128`` on 64-bit limbs.

    ``uint64`` products wrap, so only the high word of ``state_lo *
    mult_lo`` needs the product split into 32-bit halves; the cross terms
    land in the high limb modulo ``2**64`` as they are.
    """
    a0, a1 = state_lo & _U32, state_lo >> _SHIFT32
    p00, p01 = a0 * _MULT_LO0, a0 * _MULT_LO1
    p10, p11 = a1 * _MULT_LO0, a1 * _MULT_LO1
    carry = (p00 >> _SHIFT32) + (p01 & _U32) + (p10 & _U32)
    hi = p11 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (carry >> _SHIFT32)
    hi += state_lo * _MULT_HI
    hi += state_hi * _MULT_LO
    lo = state_lo * _MULT_LO
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    return hi, lo


def check_device_ids(device_ids: Sequence[int]) -> np.ndarray:
    """``device_ids`` as an ``int64`` array, refused unless every id is one
    ``uint32`` spawn-key word (a wider id is two words: another hash)."""
    ids = np.asarray(device_ids, dtype=np.int64).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        raise ValueError("device ids must lie in [0, 2**32)")
    return ids


def seed_states(entropy: int, device_ids: Sequence[int]) -> Limbs:
    """PCG64 ``(state_hi, state_lo, inc_hi, inc_lo)`` of every device's stream,
    one ``uint64`` row per id, in ``device_ids`` order."""
    ids = check_device_ids(device_ids)
    words = [(entropy >> s) & _MASK32 for s in range(0, max(entropy.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    # SeedSequence.mix_entropy: fill the pool, mix it with itself, then fold
    # in every word past it — the last of which is all the ids at once.
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(w, consts) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for w in words[_POOL:] + [ids.astype(np.uint32)]:
        pool = [_mix(p, _hashmix(w, consts)) for p in pool]
    # generate_state(4, uint64): eight words cycling the pool, low word first.
    consts = _hash_consts(_INIT_B, _MULT_B)
    seed_hi, seed_lo, seq_hi, seq_lo = (
        _hashmix(pool[k], consts).astype(np.uint64)
        | (_hashmix(pool[k + 1], consts).astype(np.uint64) << _SHIFT32)
        for k in (0, 2, 0, 2)
    )
    # pcg_setseq_128_srandom: inc = seq << 1 | 1; state = 0; step;
    # state += seed; step.
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    state_lo = seed_lo + inc_lo
    state_hi = seed_hi + inc_hi + (state_lo < inc_lo)
    return (*_step(state_hi, state_lo, inc_hi, inc_lo), inc_hi, inc_lo)


def decode_random(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each word: its top 53 bits times 2**-53."""
    return _to_float(words >> np.uint64(11)) * _TO_DOUBLE


def decode_standard_exponential(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``Generator.standard_exponential()``'s ziggurat fast path on each word:
    ``(values, fast)``, a value being the variate where ``fast`` holds."""
    ri = words >> np.uint64(3)
    idx = (ri & np.uint64(0xFF)).view(np.intp)
    ri >>= np.uint64(8)
    return _to_float(ri) * WE[idx], ri < KE[idx]


def decode_standard_normal(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``Generator.standard_normal()``'s ziggurat fast path on each word:
    ``(values, fast)``, a value being the variate where ``fast`` holds."""
    idx = (words & np.uint64(0xFF)).view(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(0x000FFFFFFFFFFFFF)
    values = _to_float(rabs) * WI[idx]
    # Negative where bit 8 of the word is set: that bit moved to the sign
    # bit of the (non-negative) value.
    values.view(np.uint64)[...] |= (words << np.uint64(55)) & np.uint64(1 << 63)
    return values, rabs < KI[idx]


def _to_float(small: np.ndarray) -> np.ndarray:
    """``uint64`` words below 2**53 as exact ``float64``s, converted through
    their ``int64`` reading (numpy's ``uint64`` conversion is slower)."""
    return small.view(np.int64).astype(np.float64)


def _next_double(next_word: Callable[[], int]) -> float:
    """numpy's ``next_double``: the next word's top 53 bits times 2**-53."""
    return (next_word() >> 11) * _TO_DOUBLE


def standard_exponential(word: int, next_word: Callable[[], int]) -> float:
    """numpy's ``random_standard_exponential`` from its first raw word
    ``word`` and the words ``next_word`` returns after it, operation for
    operation: the fast path of :func:`decode_standard_exponential`, else
    the base strip's tail or the wedge test, which starts over on a new word
    when it rejects."""
    while True:
        ri = word >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * _WE[idx]
        if ri < _KE[idx]:
            return x
        if idx == 0:
            return _EXP_R - math.log1p(-_next_double(next_word))
        u = _next_double(next_word)
        if (_FE[idx - 1] - _FE[idx]) * u + _FE[idx] < math.exp(-x):
            return x
        word = next_word()


def standard_normal(word: int, next_word: Callable[[], int]) -> float:
    """numpy's ``random_standard_normal`` from its first raw word ``word``
    and the words ``next_word`` returns after it, operation for operation:
    the fast path of :func:`decode_standard_normal`, else the base strip's
    tail loop or the wedge test, which starts over on a new word when it
    rejects."""
    while True:
        r = word
        idx = r & 0xFF
        r >>= 8
        rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
        x = rabs * _WI[idx]
        if r & 1:
            x = -x
        if rabs < _KI[idx]:
            return x
        if idx == 0:
            while True:
                xx = -_NOR_INV_R * math.log1p(-_next_double(next_word))
                yy = -math.log1p(-_next_double(next_word))
                if yy + yy > xx * xx:
                    return -(_NOR_R + xx) if (rabs >> 8) & 1 else _NOR_R + xx
        u = _next_double(next_word)
        if (_FI[idx - 1] - _FI[idx]) * u + _FI[idx] < math.exp(-0.5 * x * x):
            return x
        word = next_word()


def standard_gamma(next_word: Callable[[], int], shape: float) -> float:
    """numpy's ``random_standard_gamma`` for ``shape > 1`` over the words
    ``next_word`` returns: Marsaglia–Tsang, operation for operation — a
    normal ``X`` drawn again while ``V = 1 + cX <= 0``, then a uniform ``U``
    against the squeeze and the log test, from the start when both reject."""
    b = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9 * b)
    while True:
        while True:
            x = standard_normal(next_word(), next_word)
            v = 1.0 + c * x
            if v > 0.0:
                break
        v = v * v * v
        u = _next_double(next_word)
        if u < 1.0 - 0.0331 * (x * x) * (x * x):
            return b * v
        # C's log(0.0) is -inf, which the log test accepts; math.log raises.
        if u == 0.0 or math.log(u) < 0.5 * x * x + b * (1.0 - v + math.log(v)):
            return b * v


class _RowStream:
    """A PCG64 stepped with Python ints: the word source of a row's slow
    draw, set to the row's ``state`` and ``inc`` first, and the state the
    draw leaves."""

    __slots__ = ("state", "inc")

    def __init__(self, state: int = 0, inc: int = 1) -> None:
        self.state, self.inc = state, inc

    def next_word(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        hi = state >> 64
        value, rot = (hi ^ state) & _MASK64, hi >> 58
        return ((value >> rot) | (value << (64 - rot))) & _MASK64


class LockstepPCG64:
    """The streams of a block of devices, one row each, advanced together.

    Every draw method advances every row by one draw of the named numpy
    ``Generator`` method and returns one variate per row.  :meth:`keep`
    drops rows (a device that is done drawing), keeping the order of the
    rest.
    """

    def __init__(self, entropy: int, device_ids: Sequence[int]) -> None:
        self.state_hi, self.state_lo, self.inc_hi, self.inc_lo = seed_states(
            entropy, device_ids
        )

    def keep(self, mask: np.ndarray) -> None:
        self.state_hi, self.state_lo = self.state_hi[mask], self.state_lo[mask]
        self.inc_hi, self.inc_lo = self.inc_hi[mask], self.inc_lo[mask]

    def _next_uint64(self) -> np.ndarray:
        """Step every row; return its XSL-RR output."""
        hi, lo = self.state_hi, self.state_lo = _step(
            self.state_hi, self.state_lo, self.inc_hi, self.inc_lo
        )
        value = hi ^ lo
        rot = hi >> _SHIFT58
        return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))

    def random(self) -> np.ndarray:
        """``Generator.random()``."""
        return decode_random(self._next_uint64())

    def standard_exponential(self) -> np.ndarray:
        """``Generator.standard_exponential()``: the ziggurat's fast path
        decoded for every row, its misses resolved row by row."""
        words = self._next_uint64()
        values, fast = decode_standard_exponential(words)
        self._resolve(standard_exponential, words, fast, values)
        return values

    def standard_normal(self) -> np.ndarray:
        """``Generator.standard_normal()``: the ziggurat's fast path decoded
        for every row, its misses resolved row by row."""
        words = self._next_uint64()
        values, fast = decode_standard_normal(words)
        self._resolve(standard_normal, words, fast, values)
        return values

    def _resolve(
        self,
        sample: Callable[[int, Callable[[], int]], float],
        words: np.ndarray,
        fast: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Finish the draws of the rows not ``fast`` with the scalar
        ``sample``, each from its row's word and the words its state gives
        next, stepped as one Python int; write back the variates and the
        states the draws leave."""
        rows = np.flatnonzero(~fast)
        if not rows.size:
            return
        state_hi, state_lo = self.state_hi, self.state_lo
        drawn, after_hi, after_lo = [], [], []
        stream = _RowStream()
        next_word = stream.next_word
        for word, s_hi, s_lo, i_hi, i_lo in zip(
            words[rows].tolist(),
            state_hi[rows].tolist(),
            state_lo[rows].tolist(),
            self.inc_hi[rows].tolist(),
            self.inc_lo[rows].tolist(),
        ):
            stream.state, stream.inc = (s_hi << 64) | s_lo, (i_hi << 64) | i_lo
            drawn.append(sample(word, next_word))
            after_hi.append(stream.state >> 64)
            after_lo.append(stream.state & _MASK64)
        values[rows] = drawn
        state_hi[rows] = after_hi
        state_lo[rows] = after_lo


__all__ = [
    "LockstepPCG64",
    "check_device_ids",
    "decode_random",
    "decode_standard_exponential",
    "decode_standard_normal",
    "seed_states",
    "standard_exponential",
    "standard_gamma",
    "standard_normal",
]
