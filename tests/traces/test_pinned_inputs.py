"""Generated inputs are frozen: blake2b digests of the availability columns
and of a sampled device population, **recorded on commit b0d68d0** (the last
one that built a ``default_rng(SeedSequence(...))`` per device and walked
``AvailabilitySession`` objects) and asserted against the columnar,
kernel-seeded, scalar-free generators that replaced it.  The three cases
marked *6e26318* — a population off a non-zero ``start_id`` that is not a
multiple of the derivation block, a population with no data domains, and a
trace over shuffled sparse ids — were recorded on that commit, the last one
that drew a device's domains one scalar at a time and each session through
``uniform`` / ``exponential`` / ``normal``.  A changed digest means some draw,
float operation or ordering moved — golden fixtures and every benchmark
digest would move with it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.traces.capacity import CapacityConfig, CapacitySampler
from repro.traces.device_trace import DAY, DiurnalAvailabilityModel, DiurnalConfig

N = 2_000
#: ``N`` distinct ids in [0, 2**32), neither sorted nor dense (6e26318).
SPARSE_IDS = [(k * 2654435761) % 2**32 for k in range(1, N + 1)]


def _columns_digest(trace) -> str:
    h = hashlib.blake2b(digest_size=16)
    for column in (trace.device_ids, trace.starts, trace.ends):
        h.update(column.tobytes())
    return h.hexdigest()


def _devices_digest(devices) -> str:
    h = hashlib.blake2b(digest_size=16)
    for d in devices:
        h.update(
            repr(
                (d.device_id, d.cpu_score, d.memory_score, d.speed_factor,
                 sorted(d.data_domains), d.reliability)
            ).encode()
        )
    return h.hexdigest()


@pytest.mark.parametrize(
    "config, sessions, digest",
    [
        (DiurnalConfig(horizon=DAY), 3_436, "f1084cc6a6d7f0554ea2b5027050d605"),
        (DiurnalConfig(), 13_359, "e63bad8453ae8092f12ebc3a06b816c5"),
    ],
    ids=["24h", "4-day default"],
)
def test_availability_columns(config, sessions, digest):
    trace = DiurnalAvailabilityModel(config, seed=8).generate(N)
    assert len(trace) == sessions
    assert _columns_digest(trace) == digest


def test_availability_columns_of_shuffled_sparse_ids():
    trace = DiurnalAvailabilityModel(DiurnalConfig(horizon=DAY), seed=8).generate(
        N, device_ids=SPARSE_IDS
    )
    assert len(trace) == 3_441
    assert _columns_digest(trace) == "e174e74e08d88595acae79aa63dbb1ac"


@pytest.mark.parametrize(
    "config, n, start_id, digest",
    [
        (None, N, 0, "67d20b55a71104b694f1050fd9efc51d"),
        (None, 5_003, 100, "efef906b2a230ae16bc362ab5286b257"),
        (CapacityConfig(data_domains=()), N, 0, "a338f2077d38ad9378e1c25bf3178034"),
    ],
    ids=["default", "5003 from id 100", "no domains"],
)
def test_sampled_devices(config, n, start_id, digest):
    devices = CapacitySampler(config, seed=7).sample_devices(n, start_id=start_id)
    assert _devices_digest(devices) == digest
