"""Unit tests for the device-stream layer (:mod:`repro.sim.shard`).

The fleet engine's correctness rests on two local properties pinned here:
vectorised signature precompute equals the per-device predicate walk, and
the device stream carries the single-queue engine's exact sequence
enumeration in sorted order, naming each device by its slot.  The stream is
code-encoded (``seq = seq0 + code``); the two-key ``lexsort`` build it
replaced is kept below as the oracle its decoded rows must equal bit for
bit.  (End-to-end bit-identity lives in ``tests/sim/test_sharded_engine.py``.)
"""

from __future__ import annotations

import heapq
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.shard as shard_module
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
    DeviceShard,
    build_shard,
    code_dtype,
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


def signatures(devices, requirements):
    """:func:`compute_signatures` decoded: one signature per device."""
    sig_ids, table = compute_signatures(devices, requirements)
    assert sig_ids.dtype == np.int32 and len(sig_ids) == len(devices)
    return [table[j] for j in sig_ids.tolist()]


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
        fast = signatures(devices, REQS)
        for d, sig in zip(devices, fast):
            assert sig == signature_of(d, REQS)

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
        assert signatures([device], REQS) == [signature_of(device, REQS)]

    def test_aligned_with_the_input_not_with_the_ids(self):
        devices = [
            make_device(device_id=9, cpu=0.1, mem=0.1),
            make_device(device_id=2, cpu=0.95, mem=0.95),
        ]
        assert signatures(devices, REQS) == [
            signature_of(d, REQS) for d in devices
        ]

    def test_signatures_are_interned(self):
        devices = [make_device(device_id=i, cpu=0.9, mem=0.9) for i in range(5)]
        sig_ids, table = compute_signatures(devices, REQS)
        assert sig_ids.tolist() == [0] * 5 and len(table) == 1

    def test_equal_signatures_share_one_entry(self):
        """Interning is by value: two requirement objects sharing a name
        give different bitmasks but equal signatures, and the fallback path
        builds a new frozenset per device."""
        low = EligibilityRequirement("twin", min_cpu=0.2)
        high = EligibilityRequirement("twin", min_memory=0.8)
        devices = [
            make_device(device_id=0, cpu=0.5, mem=0.1),  # low only
            make_device(device_id=1, cpu=0.1, mem=0.9),  # high only
            make_device(device_id=2, cpu=0.1, mem=0.1),  # neither
        ]
        sig_ids, table = compute_signatures(devices, [low, high])
        assert sig_ids[0] == sig_ids[1] != sig_ids[2]
        assert sorted(table, key=len) == [frozenset(), frozenset({"twin"})]

        class Any(EligibilityRequirement):
            def is_eligible(self, device):
                return True

        sig_ids, table = compute_signatures(devices, [Any("any")])
        assert sig_ids.tolist() == [0, 0, 0] and len(table) == 1

    def test_subclassed_requirement_falls_back(self):
        class Odd(EligibilityRequirement):
            def is_eligible(self, device):
                return device.device_id % 2 == 1

        odd = Odd("odd")
        devices = [make_device(device_id=i) for i in range(4)]
        sigs = signatures(devices, [odd])
        assert sigs[0] == frozenset()
        assert sigs[1] == frozenset({"odd"})

    def test_empty_requirements(self):
        devices = [make_device(device_id=3), make_device(device_id=4)]
        sig_ids, table = compute_signatures(devices, [])
        assert sig_ids.tolist() == [0, 0] and table == [frozenset()]

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
        assert signatures([device], reqs) == [signature_of(device, reqs)]
        strong = make_device(device_id=2, cpu=1.0, mem=1.0)
        assert signatures([strong], reqs) == [frozenset(r.name for r in reqs)]


def lexsort_stream(starts, slots, ends, seqs, horizon):
    """The oracle: the stream as it was built before events were numbered
    by code — both event halves concatenated, a sequence-number column
    beside them, one two-key ``lexsort``, five columns ``(time, seq, slot,
    session_end, is_checkin)`` out."""
    n = len(starts)
    times = np.concatenate([starts, np.minimum(ends, horizon)])
    seq_all = np.concatenate([seqs, seqs + 1])
    order = np.lexsort((seq_all, times))
    is_checkin = order < n
    session = np.where(is_checkin, order, order - n)
    return (
        times[order],
        seq_all[order],
        slots[session],
        ends[session],
        is_checkin,
    )


def decoded(shard):
    """Every event of ``shard`` as the readers see it: the window rows."""
    rows, p = [], 0
    while p < shard.st_len:
        window, _lo, p = shard.refill(p)
        rows.extend(window)
    return rows


def exact(rows):
    """Rows with floats spelled out, so ``-0.0`` and ``0.0`` differ."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in row)
        for row in rows
    ]


#: Few distinct values, so that starts tie, a start meets another
#: session's clipped end, ends run past the horizon (8.0) and ``-0.0``
#: meets ``0.0``.
TIMES = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 5.0, 8.0, 9.0, 12.0])


class TestStaticStream:
    def test_sorted_by_time_then_code(self):
        starts = np.array([1.0, 2.0, 5.0])
        slots = np.array([4, 2, 0], dtype=np.int32)
        ends = np.array([5.0, 9.0, 6.0])
        sa_time, sa_code, sa_slot, se_end = make_static_stream(
            starts, slots, ends, horizon=8.0
        )
        # Events: checkin(1, c0), checkin(2, c2), checkout(5, c1),
        # checkin(5, c4), checkout(min(6,8)=6, c5), checkout(min(9,8)=8, c3)
        assert sa_time.tolist() == [1.0, 2.0, 5.0, 5.0, 6.0, 8.0]
        assert sa_code.tolist() == [0, 2, 1, 4, 5, 3]
        assert ((sa_code & 1) == 0).tolist() == [
            True, True, False, True, False, False
        ]
        # Every event reads its *original* (unclipped) session end.
        assert se_end[sa_code >> 1].tolist() == [5.0, 9.0, 5.0, 6.0, 6.0, 9.0]
        assert sa_slot.tolist() == [4, 2, 4, 0, 0, 2]
        # 8 + 4 + 4 B per event, 8 B per session.
        assert [c.dtype for c in (sa_time, sa_code, sa_slot, se_end)] == [
            np.float64, np.int32, np.int32, np.float64
        ]
        assert se_end is ends

    def test_same_time_checkout_sorts_before_later_code_checkin(self):
        # Session A [1, 5] (codes 0/1), session B [5, 9] (codes 2/3): at t=5
        # A's checkout (code 1) precedes B's check-in (code 2), like the
        # single-queue engine's insertion order.
        sa_time, sa_code, _slot, _end = make_static_stream(
            np.array([1.0, 5.0]), np.array([7, 7]), np.array([5.0, 9.0]),
            horizon=100.0,
        )
        assert sa_time.tolist() == [1.0, 5.0, 5.0, 9.0]
        assert sa_code.tolist() == [0, 1, 2, 3]

    def test_empty_stream_keeps_dtypes(self):
        empty_f = np.array([], dtype=float)
        stream = make_static_stream(
            empty_f, np.array([], dtype=np.int32), empty_f, 10.0
        )
        assert [c.dtype for c in stream] == [
            np.float64, np.int32, np.int32, np.float64
        ]
        assert all(len(c) == 0 for c in stream)

    def test_code_width_follows_the_event_count(self):
        assert code_dtype(0) is code_dtype(2**31 - 2) is np.int32
        assert code_dtype(2**31) is code_dtype(2**40) is np.int64

    @given(
        sessions=st.lists(
            st.tuples(TIMES, st.integers(0, 3), TIMES), max_size=12
        ),
        seq0=st.integers(0, 2**40),
        width=st.sampled_from([np.int32, np.int64]),
    )
    @example(sessions=[], seq0=0, width=np.int32)
    @example(sessions=[(1.0, 0, 5.0)], seq0=3, width=np.int32)
    @example(sessions=[(1.0, 0, 5.0), (1.0, 1, 2.0)], seq0=0, width=np.int32)
    @example(sessions=[(0.0, 0, 9.0), (8.0, 1, 12.0)], seq0=0, width=np.int32)
    @example(sessions=[(2.0, 0, 5.0), (5.0, 1, 9.0)], seq0=1, width=np.int64)
    @example(sessions=[(0.0, 0, 1.0), (-0.0, 1, -0.0)], seq0=0, width=np.int32)
    @settings(max_examples=300, deadline=None)
    def test_decoded_rows_equal_the_lexsort_oracle(self, sessions, seq0, width):
        """Row for row and bit for bit, what the readers decode from the
        code-encoded stream is what the lexsort build produced."""
        starts = np.array([s for s, _, _ in sessions], dtype=np.float64)
        slots = np.array([d for _, d, _ in sessions], dtype=np.int32)
        ends = np.array([e for _, _, e in sessions], dtype=np.float64)
        seqs = seq0 + 2 * np.arange(len(sessions), dtype=np.int64)
        with mock.patch.object(shard_module, "code_dtype", lambda n: width):
            stream = make_static_stream(starts, slots, ends, horizon=8.0)
        assert stream[1].dtype == width
        oracle = lexsort_stream(starts, slots, ends, seqs, horizon=8.0)
        expected = list(zip(*(column.tolist() for column in oracle)))
        assert exact(decoded(DeviceShard(stream, seq0))) == exact(expected)


def _trace(sessions):
    horizon = max(e for (_, _, e) in sessions)
    return DeviceAvailabilityTrace(
        horizon=horizon,
        sessions=[AvailabilitySession(d, s, e) for (d, s, e) in sessions],
    )


class TestBuildShard:
    def test_stream_and_seq_budget(self):
        ids = np.arange(6)
        trace = _trace([(i, float(i), float(i) + 10.0) for i in range(6)])
        stream, consumed = build_shard(ids, trace, horizon=100.0, seq_start=2)
        assert consumed == 12  # two seqs per session
        assert sorted(set(stream.sa_slot.tolist())) == list(range(6))
        assert stream.seq0 == 2
        assert np.array_equal(
            stream.seq0 + np.sort(stream.sa_code), np.arange(2, 14)
        )

    def test_stream_names_devices_by_slot(self):
        """Sparse ids in no order: device 20 is slot 1 (its rank)."""
        ids = np.array([33, 7, 31, 20])
        trace = _trace([(33, 1.0, 5.0), (20, 2.0, 6.0), (7, 3.0, 8.0)])
        stream, consumed = build_shard(ids, trace, horizon=100.0, seq_start=0)
        assert consumed == 6
        assert stream.sa_slot.tolist() == [3, 1, 0, 3, 1, 0]
        # A decoded window row carries the slot too.
        assert stream.refill(0)[0][1] == (2.0, 2, 1, 6.0, True)

    def test_sessions_past_horizon_consume_no_seqs(self):
        trace = _trace([(0, 1.0, 5.0), (1, 50.0, 60.0)])
        stream, consumed = build_shard(
            np.arange(2), trace, horizon=10.0, seq_start=0
        )
        assert consumed == 2  # the t=50 session is beyond the horizon
        assert stream.st_len == 2
        assert stream.sa_slot.tolist() == [0, 0]

    def test_events_through_counts_keys_up_to_a_bound(self):
        """Events at t = 1, 2, 3, 5 (checkout, seq 5), 6, 8, 20, 30 with
        seq0 = 4: a bound at the t = 5 checkout includes it from its own
        seq on, and nothing at another time depends on the seq."""
        trace = _trace(
            [(0, 1.0, 5.0), (1, 2.0, 6.0), (2, 3.0, 8.0), (3, 20.0, 30.0)]
        )
        sh, _ = build_shard(np.arange(4), trace, horizon=100.0, seq_start=4)
        assert sh.events_through(5.0, 4) == 3
        assert sh.events_through(5.0, 5) == 4
        assert sh.events_through(4.0, 10**9) == 3
        assert sh.events_through(0.5, 10**9) == 0
        assert sh.events_through(30.0, -1) == 7
        assert sh.events_through(1e9, 0) == 8

    def test_head_key_merges_static_and_dynamic(self):
        trace = _trace([(0, 4.0, 9.0)])
        sh, _ = build_shard(np.arange(1), trace, horizon=10.0, seq_start=0)
        assert sh.head_key() == (4.0, 0)
        sh.schedule_response(2.0, 99, 0, 1, 1, True)
        assert sh.head_key() == (2.0, 99)
        sh.heap.clear()
        sh.cursor = sh.st_len
        assert sh.head_key() == INF_KEY


def four_device_stream():
    """Static events at t = 1, 2, 3, 5, 6, 8, 20, 30 over slots 0..3."""
    trace = _trace(
        [(0, 1.0, 5.0), (1, 2.0, 6.0), (2, 3.0, 8.0), (3, 20.0, 30.0)]
    )
    stream, _ = build_shard(np.arange(4), trace, horizon=100.0, seq_start=0)
    return stream


class TestStreamWindow:
    """The decode window follows the cursor and is never pickled."""

    def test_head_key_refills_after_the_cursor_leaves_the_window(
        self, monkeypatch
    ):
        monkeypatch.setattr(shard_module, "STREAM_WINDOW", 2)
        stream = four_device_stream()
        assert stream.head_key() == (1.0, stream.seq0 + int(stream.sa_code[0]))
        assert (stream.w_lo, stream.w_hi) == (0, 2)
        stream.cursor = 5  # a kernel fold moved it far past the window
        assert stream.head_key() == (8.0, stream.seq0 + int(stream.sa_code[5]))
        assert (stream.w_lo, stream.w_hi) == (5, 7)

    @pytest.mark.parametrize("window", [1, 3, shard_module.STREAM_WINDOW])
    def test_head_key_walks_static_events_and_responses_in_key_order(
        self, monkeypatch, window
    ):
        """Consuming whatever ``head_key`` names — a response off the heap
        when it heads it, else the static event at the cursor — visits both
        sources in ascending ``(time, seq)`` order.  Responses take seqs
        after the stream's, so a response tied in time with a static event
        comes after it."""
        monkeypatch.setattr(shard_module, "STREAM_WINDOW", window)
        stream = four_device_stream()
        static = list(
            zip(stream.sa_time.tolist(), (stream.seq0 + stream.sa_code).tolist())
        )
        responses = [
            (40.0, 105), (3.0, 100), (0.5, 104), (5.0, 101), (25.0, 103),
            (8.0, 102),
        ]
        for k, (t, seq) in enumerate(responses):
            stream.schedule_response(t, seq, k % 4, k, 1, True)
        walked = []
        while stream.head_key() != INF_KEY:
            key = stream.head_key()
            walked.append(key)
            if stream.heap and stream.heap[0][:2] == key:
                heapq.heappop(stream.heap)
            else:
                stream.cursor += 1
        assert walked == sorted(static + responses)
        assert stream.cursor == stream.st_len and not stream.heap

    def test_refill_clamps_at_the_stream_end(self, monkeypatch):
        monkeypatch.setattr(shard_module, "STREAM_WINDOW", 3)
        stream = four_device_stream()
        rows, lo, hi = stream.refill(6)
        assert (lo, hi) == (6, 8)
        assert [row[0] for row in rows] == [20.0, 30.0]

    def test_pickle_drops_the_window_and_keeps_the_state(self):
        stream = four_device_stream()
        stream.schedule_response(4.0, 100, 0, 7, 1, True)
        stream.cursor = 3
        key = stream.head_key()
        assert stream.w_rows  # decoded by head_key
        restored = pickle.loads(pickle.dumps(stream))
        assert restored.w_rows == [] and restored.w_lo == restored.w_hi == 0
        assert stream.w_rows  # the live stream keeps its window
        assert restored.cursor == stream.cursor
        assert restored.heap == stream.heap
        assert restored.seq0 == stream.seq0
        for name in ("sa_time", "sa_code", "sa_slot", "se_end"):
            assert np.array_equal(getattr(restored, name), getattr(stream, name))
        assert restored.head_key() == key
