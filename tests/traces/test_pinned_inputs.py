"""Generated inputs are frozen: blake2b digests of the availability columns
and of a sampled device population, **recorded on commit b0d68d0** (the last
one that built a ``default_rng(SeedSequence(...))`` per device and walked
``AvailabilitySession`` objects) and asserted against the columnar,
kernel-seeded, scalar-free generators that replaced it.  A changed digest
means some draw, float operation or ordering moved — golden fixtures and
every benchmark digest would move with it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DAY, DiurnalAvailabilityModel, DiurnalConfig

N = 2_000


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
    h = hashlib.blake2b(digest_size=16)
    for column in (trace.device_ids, trace.starts, trace.ends):
        h.update(column.tobytes())
    assert h.hexdigest() == digest


def test_sampled_devices():
    h = hashlib.blake2b(digest_size=16)
    for d in CapacitySampler(seed=7).sample_devices(N):
        h.update(
            repr(
                (d.device_id, d.cpu_score, d.memory_score, d.speed_factor,
                 sorted(d.data_domains), d.reliability)
            ).encode()
        )
    assert h.hexdigest() == "67d20b55a71104b694f1050fd9efc51d"
