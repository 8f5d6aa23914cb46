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

:class:`LockstepPCG64` hands the 1–2 % of words that miss the fast path to
numpy's scalar sampler, run on that row's exact pre-draw state, and reads the
row's state back afterwards — so every row stays in lockstep and there is no
second per-device code path.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from .ziggurat import KE, KI, WE, WI

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_U32 = np.uint64(_MASK32)
_SHIFT32, _SHIFT58 = np.uint64(32), np.uint64(58)
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO0, _MULT_LO1 = _MULT_LO & _U32, _MULT_LO >> _SHIFT32

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
    return _to_float(words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


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


def _slow_draws(draw: str, limbs: Limbs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run numpy's scalar ``Generator.<draw>()`` once per row from the row's
    state; return the variates and the rows' states after the draw."""
    bit_generator = np.random.PCG64(0)
    sample = getattr(np.random.Generator(bit_generator), draw)
    state = bit_generator.state
    pcg = state["state"]
    n = len(limbs[0])
    values = np.empty(n)
    after_hi, after_lo = np.empty(n, np.uint64), np.empty(n, np.uint64)
    for k, (s_hi, s_lo, i_hi, i_lo) in enumerate(zip(*(a.tolist() for a in limbs))):
        pcg["state"], pcg["inc"] = (s_hi << 64) | s_lo, (i_hi << 64) | i_lo
        bit_generator.state = state
        values[k] = sample()
        after = bit_generator.state["state"]["state"]
        after_hi[k], after_lo[k] = after >> 64, after & 0xFFFFFFFFFFFFFFFF
    return values, after_hi, after_lo


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
        decoded here, its misses delegated."""
        before = self.state_hi, self.state_lo
        values, fast = decode_standard_exponential(self._next_uint64())
        self._delegate("standard_exponential", fast, values, before)
        return values

    def standard_normal(self) -> np.ndarray:
        """``Generator.standard_normal()``: the ziggurat's fast path decoded
        here, its misses delegated."""
        before = self.state_hi, self.state_lo
        values, fast = decode_standard_normal(self._next_uint64())
        self._delegate("standard_normal", fast, values, before)
        return values

    def _delegate(
        self,
        draw: str,
        fast: np.ndarray,
        values: np.ndarray,
        before: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Redo the draws of the rows not ``fast`` with numpy's scalar
        sampler, from the states they had before this draw."""
        rows = np.flatnonzero(~fast)
        if rows.size:
            limbs = (before[0][rows], before[1][rows], self.inc_hi[rows], self.inc_lo[rows])
            after = _slow_draws(draw, limbs)
            values[rows], self.state_hi[rows], self.state_lo[rows] = after


__all__ = [
    "LockstepPCG64",
    "check_device_ids",
    "decode_random",
    "decode_standard_exponential",
    "decode_standard_normal",
    "seed_states",
]
