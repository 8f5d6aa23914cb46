"""Unit tests for the device-shard layer (:mod:`repro.sim.shard`).

The fleet engine's correctness rests on two local properties pinned here:
vectorised signature precompute equals the per-device predicate walk, and
shard streams carry the single-queue engine's exact sequence enumeration in
sorted order, naming each device by its slot.  (End-to-end bit-identity
lives in ``tests/sim/test_sharded_engine.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requirements import (
    COMPUTE_RICH,
    GENERAL,
    HIGH_PERFORMANCE,
    MEMORY_RICH,
    EligibilityRequirement,
    signature_of,
)
from repro.sim.shard import (
    INF_KEY,
    build_shards,
    compute_signatures,
    make_static_stream,
)
from repro.traces.device_trace import (
    AvailabilitySession,
    DeviceAvailabilityTrace,
)
from tests.conftest import make_device

REQS = [
    GENERAL,
    COMPUTE_RICH,
    MEMORY_RICH,
    HIGH_PERFORMANCE,
    EligibilityRequirement("kbd", min_cpu=0.3, data_domain="keyboard"),
]


class TestComputeSignatures:
    def test_matches_signature_of_exactly(self):
        rng = np.random.default_rng(5)
        devices = [
            make_device(
                device_id=i,
                cpu=float(rng.uniform(0, 1)),
                mem=float(rng.uniform(0, 1)),
                domains=("keyboard",) if rng.random() < 0.4 else (),
            )
            for i in range(300)
        ]
        fast = compute_signatures(devices, REQS)
        for d in devices:
            assert fast[d.device_id] == signature_of(d, REQS)

    @given(
        cpu=st.floats(0.0, 1.0),
        mem=st.floats(0.0, 1.0),
        has_domain=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_equivalence(self, cpu, mem, has_domain):
        device = make_device(
            device_id=1, cpu=cpu, mem=mem,
            domains=("keyboard",) if has_domain else (),
        )
        assert compute_signatures([device], REQS)[1] == signature_of(
            device, REQS
        )

    def test_signatures_are_interned(self):
        devices = [make_device(device_id=i, cpu=0.9, mem=0.9) for i in range(5)]
        sigs = compute_signatures(devices, REQS)
        assert all(sigs[i] is sigs[0] for i in range(5))

    def test_subclassed_requirement_falls_back(self):
        class Odd(EligibilityRequirement):
            def is_eligible(self, device):
                return device.device_id % 2 == 1

        odd = Odd("odd")
        devices = [make_device(device_id=i) for i in range(4)]
        sigs = compute_signatures(devices, [odd])
        assert sigs[0] == frozenset()
        assert sigs[1] == frozenset({"odd"})

    def test_empty_requirements(self):
        devices = [make_device(device_id=3)]
        assert compute_signatures(devices, []) == {3: frozenset()}

    def test_more_than_63_requirements_fall_back_exactly(self):
        """The vectorised path packs one requirement per int64 bit; >63
        requirements must fall back to the exact per-device walk instead of
        silently overflowing the shift (regression test)."""
        reqs = [
            EligibilityRequirement(f"r{k}", min_cpu=k / 100.0)
            for k in range(65)
        ]
        # Eligible only for the low-threshold requirements — including one
        # whose bit index (64) would overflow an int64 shift.
        device = make_device(device_id=1, cpu=0.645, mem=1.0)
        assert compute_signatures([device], reqs)[1] == signature_of(
            device, reqs
        )
        strong = make_device(device_id=2, cpu=1.0, mem=1.0)
        assert compute_signatures([strong], reqs)[2] == frozenset(
            r.name for r in reqs
        )


class TestStaticStream:
    def test_sorted_by_time_then_seq_with_legacy_seqs(self):
        starts = np.array([1.0, 2.0, 5.0])
        ids = np.array([4, 2, 0])
        ends = np.array([5.0, 9.0, 6.0])
        seqs = np.array([10, 12, 14])  # seq_start 10, 2 per session
        times, seq, devs, sends, is_checkin = make_static_stream(
            starts, ids, ends, seqs, horizon=8.0
        )
        # Events: checkin(1, s10), checkin(2, s12), checkout(5, s11),
        # checkin(5, s14), checkout(min(6,8)=6, s15), checkout(min(9,8)=8, s13)
        assert np.array_equal(times, [1.0, 2.0, 5.0, 5.0, 6.0, 8.0])
        assert np.array_equal(seq, [10, 12, 11, 14, 15, 13])
        assert np.array_equal(is_checkin, [True, True, False, True, False, False])
        # Checkout events carry the *original* session end.
        assert np.array_equal(sends, [5.0, 9.0, 5.0, 6.0, 6.0, 9.0])
        assert np.array_equal(devs, [4, 2, 4, 0, 0, 2])
        # The columns are the stream: arrays, one fixed dtype each.
        assert [c.dtype for c in (times, seq, devs, sends, is_checkin)] == [
            np.float64, np.int64, np.int64, np.float64, np.bool_
        ]

    def test_same_time_checkout_sorts_before_later_seq_checkin(self):
        # Session A [1, 5] (seqs 0/1), session B [5, 9] (seqs 2/3): at t=5
        # A's checkout (seq 1) precedes B's check-in (seq 2), like the
        # single-queue engine's insertion order.
        times, seq, devs, sends, is_checkin = make_static_stream(
            np.array([1.0, 5.0]), np.array([7, 7]), np.array([5.0, 9.0]),
            np.array([0, 2]), horizon=100.0,
        )
        assert list(zip(times.tolist(), is_checkin.tolist())) == [
            (1.0, True), (5.0, False), (5.0, True), (9.0, False)
        ]

    def test_empty_stream_keeps_dtypes(self):
        empty_f, empty_i = np.array([], dtype=float), np.array([], dtype=np.int64)
        stream = make_static_stream(empty_f, empty_i, empty_f, empty_i, 10.0)
        assert [c.dtype for c in stream] == [
            np.float64, np.int64, np.int64, np.float64, np.bool_
        ]
        assert all(len(c) == 0 for c in stream)


def _trace(sessions):
    horizon = max(e for (_, _, e) in sessions)
    return DeviceAvailabilityTrace(
        horizon=horizon,
        sessions=[AvailabilitySession(d, s, e) for (d, s, e) in sessions],
    )


class TestBuildShards:
    def test_partition_and_seq_budget(self):
        ids = np.arange(6)
        trace = _trace([(i, float(i), float(i) + 10.0) for i in range(6)])
        shards, consumed = build_shards(
            ids, trace, num_shards=3, horizon=100.0, seq_start=2,
            policy_name="p",
        )
        assert consumed == 12  # two seqs per session
        assert [sorted(set(sh.sa_slot.tolist())) for sh in shards] == [
            [0, 3], [1, 4], [2, 5]
        ]
        assert [sh.num_devices for sh in shards] == [2, 2, 2]
        assert all(sh.sa_seq.dtype == np.int64 for sh in shards)
        all_seqs = np.sort(np.concatenate([sh.sa_seq for sh in shards]))
        assert np.array_equal(all_seqs, np.arange(2, 14))

    def test_streams_name_devices_by_slot_and_shard_them_by_id(self):
        """Sparse ids in no order: device 20 is slot 1 (its rank) and lives
        on shard 20 % 3 == 2; device 31, which never checks in, is still
        owned (shard 1)."""
        ids = np.array([33, 7, 31, 20])
        trace = _trace([(33, 1.0, 5.0), (20, 2.0, 6.0), (7, 3.0, 8.0)])
        shards, consumed = build_shards(
            ids, trace, num_shards=3, horizon=100.0, seq_start=0,
            policy_name="p",
        )
        assert consumed == 6
        assert [sh.sa_slot.tolist() for sh in shards] == [[3, 3], [0, 0], [1, 1]]
        assert [sh.num_devices for sh in shards] == [1, 2, 1]
        # A decoded window row carries the slot too.
        assert shards[2].refill(0)[0][0] == (2.0, 2, 1, 6.0, True)

    def test_sessions_past_horizon_consume_no_seqs(self):
        trace = _trace([(0, 1.0, 5.0), (1, 50.0, 60.0)])
        shards, consumed = build_shards(
            np.arange(2), trace, num_shards=2, horizon=10.0, seq_start=0,
            policy_name="p",
        )
        assert consumed == 2  # the t=50 session is beyond the horizon
        assert shards[1].st_len == 0

    def test_head_key_merges_static_and_dynamic(self):
        trace = _trace([(0, 4.0, 9.0)])
        shards, _ = build_shards(
            np.arange(1), trace, num_shards=1, horizon=10.0, seq_start=0,
            policy_name="p",
        )
        sh = shards[0]
        assert sh.head_key() == (4.0, 0)
        sh.schedule_response(2.0, 99, 0, 1, 1, True, plan_version=3)
        assert sh.head_key() == (2.0, 99)
        assert sh.assignments_received == 1
        assert sh.last_plan_version == 3
        sh.heap.clear()
        sh.cursor = sh.st_len
        assert sh.head_key() == INF_KEY

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            build_shards(np.arange(1), _trace([(0, 1.0, 2.0)]), 0, 10.0, 0, "p")
