"""Per-device random streams at the cost of the draws, not of the constructor.

``default_rng(SeedSequence(entropy, spawn_key=(device_id,)))`` costs ~12 us,
most of it object construction.  :func:`device_streams` yields **one** reused
``Generator(PCG64)`` re-seeded per device through ``bit_generator.state`` and
is stream-identical to that construction.  numpy's ``SeedSequence`` hashes the
``uint32`` words ``(entropy..., zero padding to the pool size, device_id)``
with multipliers that evolve per call, never per value, so the same few lines
hash Python ints for the entropy words and then one ``uint32`` array holding
every device id at once for the last word; PCG64's ``srandom`` is two 128-bit
multiply-adds in Python ints.  ``tests/traces/test_streams.py`` holds numpy's
own construction as the oracle.

Devices are seeded ``_BATCH`` at a time.  ``_BATCH`` is a memory bound, not
a unit of work: a batch's ``(state, inc)`` big ints are alive at once (~150 B
a device kept, ~450 B while :func:`seed_states` builds them), so 4,096 ids
hold that transient under 2 MB; past a few thousand ids the vectorised hash
gains nothing more per device.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: Devices seeded per vectorised batch: bounds the list of big-int states.
_BATCH = 1 << 12


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


def seed_states(entropy: int, device_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """PCG64 ``(state, inc)`` of every device's stream, in ``device_ids`` order."""
    ids = np.asarray(device_ids, dtype=np.int64).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        # A wider id is two spawn-key words to numpy: another hash entirely.
        raise ValueError("device ids must lie in [0, 2**32)")
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
    lo_hi = [_hashmix(pool[k % _POOL], consts).astype(np.uint64) for k in range(2 * _POOL)]
    words64 = [lo | (hi << np.uint64(32)) for lo, hi in zip(lo_hi[0::2], lo_hi[1::2])]
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(w.tolist() for w in words64)):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        # pcg_setseq_128_srandom: state = 0; step; state += initstate; step.
        out.append((((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def device_streams(entropy: int, device_ids: Sequence[int]) -> Iterator[np.random.Generator]:
    """Yield the stream of each device in turn — the *same* generator object,
    re-seeded, so finish drawing for one device before advancing."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    for lo in range(0, len(device_ids), _BATCH):
        for pcg_state, pcg_inc in seed_states(entropy, device_ids[lo : lo + _BATCH]):
            state["state"]["state"], state["state"]["inc"] = pcg_state, pcg_inc
            bit_generator.state = state
            yield rng


__all__ = ["device_streams", "seed_states"]
