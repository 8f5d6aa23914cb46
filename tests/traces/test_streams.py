"""The lockstep per-device streams and the word decoders against numpy.

``default_rng(SeedSequence(entropy, spawn_key=(device_id,)))`` is what the
availability model used to build per device; it survives here, and only
here, as the oracle ``repro.traces.streams`` must match draw for draw.
:func:`device_streams` — one reused ``Generator`` re-seeded per device from
:func:`seed_states` — is the fast form of that oracle which
``test_generator_oracles.py`` drives its per-device session loop with.
The word decoders, which the lockstep streams and the capacity sampler both
decode with, are held word by word to numpy's own draws; the scalar samplers
of their slow paths are held to numpy in ``test_slow_paths.py``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.traces.streams as streams_module
from repro.traces.streams import LockstepPCG64, seed_states

DRAWS = ("random", "standard_exponential", "standard_normal")


def oracle(entropy: int, device_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=(device_id,))
    )


def device_streams(
    entropy: int, device_ids: Sequence[int]
) -> Iterator[np.random.Generator]:
    """Yield the stream of each device in turn — the *same* generator object,
    re-seeded, so finish drawing for one device before advancing."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    limbs = (a.tolist() for a in seed_states(entropy, device_ids))
    for s_hi, s_lo, i_hi, i_lo in zip(*limbs):
        state["state"]["state"] = (s_hi << 64) | s_lo
        state["state"]["inc"] = (i_hi << 64) | i_lo
        bit_generator.state = state
        yield rng


def pcg_state(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def lockstep_states(streams: LockstepPCG64) -> list:
    limbs = (
        a.tolist()
        for a in (streams.state_hi, streams.state_lo, streams.inc_hi, streams.inc_lo)
    )
    return [((sh << 64) | sl, (ih << 64) | il) for sh, sl, ih, il in zip(*limbs)]


def assert_same_stream(rng: np.random.Generator, ref: np.random.Generator) -> None:
    assert rng.random(8).tolist() == ref.random(8).tolist()
    assert rng.normal(1.5, 0.8) == ref.normal(1.5, 0.8)
    assert rng.exponential(3.0) == ref.exponential(3.0)


@given(
    entropy=st.integers(min_value=0, max_value=2**200),
    device_id=st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0, 1, 2**16, 2**31 - 1, 2**31, 2**32 - 1]),
    ),
)
@settings(max_examples=200, deadline=None)
def test_kernel_equals_numpy_construction(entropy, device_id):
    ref = oracle(entropy, device_id)
    assert lockstep_states(LockstepPCG64(entropy, [device_id])) == [pcg_state(ref)]
    (rng,) = device_streams(entropy, [device_id])
    assert_same_stream(rng, ref)


@pytest.mark.parametrize(
    "entropy",
    [0, 8, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**200, np.random.SeedSequence(None).entropy],
)
def test_one_generator_reseeded_across_a_population(entropy):
    """The oracle's shared generator object; nothing of a device's draws —
    not even a buffered half of a 64-bit word — leaks into the next."""
    ids = [0, 1, 2, 3, 99_999, 2**31, 2**32 - 1, 7]
    seen = set()
    for device_id, rng in zip(ids, device_streams(entropy, ids)):
        seen.add(id(rng))
        ref = oracle(entropy, device_id)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert_same_stream(rng, ref)
        rng.integers(0, 10, size=3, dtype=np.uint32)  # leaves has_uint32 set
    assert len(seen) == 1


@pytest.mark.parametrize("entropy", [7, 2**128 + 3])
def test_lockstep_draws_equal_each_devices_generator(monkeypatch, entropy):
    """2,000 rows take enough draws that both ziggurat slow paths run; every
    variate (sign of zero included) and every state after every draw is the
    row's own generator's, also after rows are dropped."""
    resolved = []

    def spy(sample):
        def draw(word, next_word):
            resolved.append(sample.__name__)
            return sample(word, next_word)

        return draw

    for name in ("standard_exponential", "standard_normal"):
        monkeypatch.setattr(streams_module, name, spy(getattr(streams_module, name)))
    ids = list(range(1_990)) + [2**31, 2**32 - 1] + [k * 7919 for k in range(8)]
    ids = list(dict.fromkeys(ids))
    streams = LockstepPCG64(entropy, ids)
    refs = [oracle(entropy, i) for i in ids]
    for step in range(12):
        draw = DRAWS[step % 3]
        got = getattr(streams, draw)()
        want = np.array([getattr(r, draw)() for r in refs])
        assert np.array_equal(got, want), draw
        assert np.array_equal(np.signbit(got), np.signbit(want)), draw
        assert lockstep_states(streams) == [pcg_state(r) for r in refs]
        if step % 4 == 3:
            keep = np.arange(len(refs)) % 3 != step % 3
            streams.keep(keep)
            refs = [r for r, k in zip(refs, keep) if k]
    assert {"standard_exponential", "standard_normal"} <= set(resolved)


@pytest.mark.parametrize("draw", DRAWS)
def test_decoders_equal_numpy_word_by_word(draw):
    """The word decoders both generators share: from every word of a stream,
    numpy's draw takes that one word exactly where the decoder's fast mask
    holds, and then returns the decoded value (sign of zero included)."""
    words = np.random.PCG64(3).random_raw(3_000)
    if draw == "random":
        values, fast = streams_module.decode_random(words), np.ones(len(words), bool)
    else:
        values, fast = getattr(streams_module, f"decode_{draw}")(words)
    bit_generator = np.random.PCG64(3)
    sample = getattr(np.random.Generator(bit_generator), draw)
    start = bit_generator.state
    for k in range(len(words) - 1):
        bit_generator.state = start
        bit_generator.advance(k)
        value = sample()
        assert fast[k] == (bit_generator.random_raw() == words[k + 1]), k
        if fast[k]:
            assert value == values[k] and np.signbit(value) == np.signbit(values[k]), k
    # Both ziggurat samplers leave their fast path on some of 3,000 words.
    assert (~fast).any() == (draw != "random")


def test_states_follow_the_order_of_the_ids():
    forward = list(zip(*(a.tolist() for a in seed_states(5, [3, 1, 2]))))
    assert forward == [
        tuple(a.item() for a in seed_states(5, [i])) for i in (3, 1, 2)
    ]
    assert len(set(forward)) == 3
    limbs = seed_states(5, [])
    assert len(limbs) == 4
    assert all(a.dtype == np.uint64 and a.size == 0 for a in limbs)


@pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
def test_ids_outside_one_word_are_refused(bad):
    # A wider id would be two spawn-key words in numpy: a different hash.
    with pytest.raises(ValueError):
        seed_states(5, [0, bad])
    with pytest.raises(ValueError):
        LockstepPCG64(5, [bad])
