"""The per-device seeding kernel against numpy's own construction.

``default_rng(SeedSequence(entropy, spawn_key=(device_id,)))`` is what the
availability model used to build per device; it survives here, and only
here, as the oracle ``repro.traces.streams`` must match draw for draw.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.streams import device_streams, seed_states


def oracle(entropy: int, device_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=(device_id,))
    )


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
    (rng,) = device_streams(entropy, [device_id])
    assert_same_stream(rng, oracle(entropy, device_id))


@pytest.mark.parametrize(
    "entropy",
    [0, 8, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**200, np.random.SeedSequence(None).entropy],
)
def test_one_generator_reseeded_across_a_population(entropy):
    """A batch shares one generator object; nothing of a device's draws —
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


def test_batching_is_invisible(monkeypatch):
    import repro.traces.streams as streams

    ids = range(10, 21)
    whole = [rng.bit_generator.state for rng in device_streams(3, ids)]
    monkeypatch.setattr(streams, "_BATCH", 4)
    assert [rng.bit_generator.state for rng in device_streams(3, ids)] == whole


def test_states_follow_the_order_of_the_ids():
    forward = seed_states(5, [3, 1, 2])
    assert forward == [seed_states(5, [i])[0] for i in (3, 1, 2)]
    assert len(set(forward)) == 3
    assert seed_states(5, []) == []


@pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
def test_ids_outside_one_word_are_refused(bad):
    # A wider id would be two spawn-key words in numpy: a different hash.
    with pytest.raises(ValueError):
        seed_states(5, [0, bad])
    with pytest.raises(ValueError):
        next(device_streams(5, [bad]))
