"""Unit tests for the vectorized engine hot path.

Covers the struct-of-arrays device state (:mod:`repro.sim.vector`) at the
kernel level — slot layout, signature ids, and a
differential check of :meth:`VectorDeviceState.fold_slice` against a scalar
replay of the engine's per-event transition functions — plus engine-level
identity: a full run with ``vectorized_dispatch=True`` must produce exactly
the same job metrics and counters as the single-queue engine (the scalar
oracle), with a latency model that exercises the batched RNG kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import make_policy
from repro.core.requirements import COMPUTE_RICH, GENERAL, MEMORY_RICH
from repro.core.types import JobSpec
from repro.sim.engine import SimulationConfig, run_simulation
from repro.sim.latency import LatencyConfig
from repro.sim.vector import (
    STATUS_BUSY,
    STATUS_IDLE,
    STATUS_OFFLINE,
    VectorDeviceState,
)
from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DiurnalAvailabilityModel, DiurnalConfig

from tests.conftest import make_device


def build_state(num_devices=4, ids=None, signatures=None):
    """A state over ``ids``; ``signatures`` maps an id to its index into
    the table ``[general, memory_rich]`` (default: all general)."""
    ids = list(ids) if ids is not None else list(range(num_devices))
    profiles = [make_device(device_id=d) for d in ids]
    sig_ids = np.array(
        [(signatures or {}).get(d, 0) for d in ids], dtype=np.int32
    )
    return VectorDeviceState(profiles, sig_ids, SIG_TABLE)


SIG_TABLE = [frozenset({"general"}), frozenset({"memory_rich"})]


class TestVectorDeviceState:
    def test_slots_follow_ascending_device_id(self):
        state = build_state(ids=[30, 5, 17])
        assert state.profiles.device_id.tolist() == [5, 17, 30]
        assert [p.device_id for p in state.profiles] == [5, 17, 30]
        assert state.profiles.rows([5, 17, 30]).tolist() == [0, 1, 2]
        assert state.profiles.rows([17, 30, 5, 17]).tolist() == [1, 2, 0, 1]
        # Ascending-slot enumeration == ascending-device-id enumeration,
        # which is what keeps vectorized dispatch order identical to the
        # single-queue engine's ascending-id walk of its idle set.
        ids = state.profiles.device_id
        assert ids[np.argsort(ids)].tolist() == ids.tolist()

    @pytest.mark.parametrize(
        "wanted, unknown",
        [
            ([3], [3]),  # below every known id
            ([5, 16, 30], [16]),  # between two known ids
            ([17, 31], [31]),  # above every known id
            ([40, 5, 2, 18], [40, 2, 18]),  # reported in the order asked
            (list(range(31, 70)), [31, 32, 33, 34, 35]),  # the first five
        ],
    )
    def test_rows_refuse_unknown_ids(self, wanted, unknown):
        # searchsorted alone would answer with a neighbour's slot (or n).
        state = build_state(ids=[30, 5, 17])
        with pytest.raises(KeyError, match="unknown device ids") as err:
            state.profiles.rows(wanted)
        assert str(err.value).endswith(f"{unknown}'")

    def test_rows_of_nothing_are_nothing(self):
        state = build_state(ids=[30, 5, 17])
        slots = state.profiles.rows([])
        assert slots.tolist() == [] and slots.dtype.kind == "i"
        # ... and an empty fleet knows no id at all.
        empty = build_state(ids=[])
        assert empty.profiles.rows([]).tolist() == []
        with pytest.raises(KeyError):
            empty.profiles.rows([0])
        with pytest.raises(KeyError):
            empty.profiles.row(0)

    def test_signature_ids_follow_the_slots(self):
        # Input order is not slot order: the ids travel with their device.
        state = build_state(ids=[30, 5, 17], signatures={5: 1})
        assert state.sig_id.tolist() == [1, 0, 0]
        assert state.sig_table == SIG_TABLE

    def test_sig_eligibility_mask(self):
        state = build_state(ids=[0, 1], signatures={1: 1})
        elig = state.sig_eligibility({"memory_rich", "high_performance"})
        assert elig[state.sig_id[0]] == False  # noqa: E712
        assert elig[state.sig_id[1]] == True  # noqa: E712
        assert not state.sig_eligibility(set()).any()


def scalar_fold_oracle(status, sess, events):
    """Per-event replay of the engine's scalar check-in/checkout handling
    (busy check-ins max-extend the session; checkouts only end the session
    of an idle device whose session end they cover).  Returns the non-busy
    check-in slots in event order."""
    ci_slots = []
    for slot, send, is_checkin in events:
        if is_checkin:
            if status[slot] == STATUS_BUSY:
                sess[slot] = max(sess[slot], send)
            else:
                status[slot] = STATUS_IDLE
                sess[slot] = send
                ci_slots.append(slot)
        else:
            if status[slot] == STATUS_IDLE and sess[slot] <= send:
                status[slot] = STATUS_OFFLINE
    return ci_slots


def apply_fold(state, events):
    """Fold ``(slot, session_end, is_checkin)`` events, event ``i`` coded
    as an event of session ``i`` (``code = 2i + is_checkout``)."""
    times = np.array([float(i) for i in range(len(events))])
    slots = np.array([e[0] for e in events], dtype=np.int32)
    se_end = np.array([e[1] for e in events], dtype=np.float64)
    codes = np.array(
        [2 * i + (not e[2]) for i, e in enumerate(events)], dtype=np.int32
    )
    return state.fold_slice(times, slots, codes, se_end)


class TestFoldSliceDifferential:
    def test_busy_checkin_extends_session_only(self):
        state = build_state(2)
        state.status[:] = (STATUS_BUSY, STATUS_BUSY)
        state.sess[:] = (100.0, 100.0)
        apply_fold(state, [(0, 500.0, True), (1, 50.0, True)])
        assert state.status.tolist() == [STATUS_BUSY, STATUS_BUSY]
        assert state.sess.tolist() == [500.0, 100.0]  # max-extend, never shrink

    def test_checkout_ignored_while_busy(self):
        state = build_state(1)
        state.status[0] = STATUS_BUSY
        state.sess[0] = 100.0
        apply_fold(state, [(0, 100.0, False)])
        assert state.status[0] == STATUS_BUSY and state.sess[0] == 100.0

    def test_checkin_then_covering_checkout_goes_offline(self):
        state = build_state(1)
        _ = apply_fold(state, [(0, 40.0, True), (0, 40.0, False)])
        assert state.status[0] == STATUS_OFFLINE
        assert state.sess[0] == 40.0

    def test_stale_checkout_before_last_checkin_is_ignored(self):
        # checkout(40) then re-checkin(90): the checkout belongs to the old
        # session and must not end the new one.
        state = build_state(1)
        apply_fold(
            state,
            [(0, 40.0, True), (0, 40.0, False), (0, 90.0, True)],
        )
        assert state.status[0] == STATUS_IDLE
        assert state.sess[0] == 90.0

    def test_checkout_only_device_needs_covering_send(self):
        state = build_state(2)
        state.status[:] = STATUS_IDLE
        state.sess[:] = (60.0, 60.0)
        apply_fold(state, [(0, 59.0, False), (1, 60.0, False)])
        assert state.status.tolist() == [STATUS_IDLE, STATUS_OFFLINE]

    def test_returns_nonbusy_checkins_in_event_order(self):
        state = build_state(3)
        state.status[2] = STATUS_BUSY
        state.sess[2] = 10.0
        ci_slots, ci_times = apply_fold(
            state,
            [(1, 30.0, True), (2, 99.0, True), (0, 20.0, True),
             (1, 55.0, True)],
        )
        assert ci_slots.tolist() == [1, 0, 1]  # busy slot 2 excluded
        assert ci_times.tolist() == [0.0, 2.0, 3.0]

    @given(
        data=st.data(),
        num_devices=st.integers(min_value=1, max_value=6),
        num_events=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_differential_vs_scalar_replay(self, data, num_devices,
                                           num_events):
        init_status = data.draw(
            st.lists(
                st.sampled_from([STATUS_OFFLINE, STATUS_IDLE, STATUS_BUSY]),
                min_size=num_devices, max_size=num_devices,
            )
        )
        init_sess = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
                min_size=num_devices, max_size=num_devices,
            )
        )
        events = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=num_devices - 1),
                    st.floats(min_value=0.0, max_value=200.0,
                              allow_nan=False),
                    st.booleans(),
                ),
                min_size=num_events, max_size=num_events,
            )
        )
        state = build_state(num_devices)
        state.status[:] = init_status
        state.sess[:] = init_sess
        oracle_status = list(init_status)
        oracle_sess = list(init_sess)
        expect_ci = scalar_fold_oracle(oracle_status, oracle_sess, events)
        ci_slots, _ = apply_fold(state, events)
        assert state.status.tolist() == oracle_status
        assert state.sess.tolist() == oracle_sess
        assert ci_slots.tolist() == expect_ci
        # Scratch arrays must be reset for the next fold.
        assert (state._scr_pos == -1).all()
        assert (state._scr_send == -np.inf).all()

    def test_two_folds_back_to_back_reuse_scratch_correctly(self):
        state = build_state(2)
        apply_fold(state, [(0, 50.0, True), (1, 50.0, True)])
        apply_fold(state, [(0, 50.0, False), (1, 120.0, True)])
        assert state.status.tolist() == [STATUS_OFFLINE, STATUS_IDLE]
        assert state.sess.tolist() == [50.0, 120.0]


def small_scenario():
    """A contended mixed-requirement scenario small enough for a unit test
    but busy enough to exercise assignments, failures, day limits and the
    batched RNG kernel (nonzero compute sigma and reliability dropouts)."""
    devices = CapacitySampler(seed=5).sample_devices(60)
    trace = DiurnalAvailabilityModel(
        DiurnalConfig(horizon=30_000.0, peak_availability=0.5,
                      trough_availability=0.3, median_session=2 * 3600.0),
        seed=6,
    ).generate(60)
    jobs = [
        JobSpec(1, GENERAL, demand_per_round=8, num_rounds=3,
                arrival_time=50.0, round_deadline=4_000.0,
                base_task_duration=90.0),
        JobSpec(2, COMPUTE_RICH, demand_per_round=5, num_rounds=2,
                arrival_time=300.0, round_deadline=4_000.0,
                base_task_duration=90.0),
        JobSpec(3, MEMORY_RICH, demand_per_round=4, num_rounds=2,
                arrival_time=700.0, round_deadline=4_000.0,
                base_task_duration=90.0),
    ]
    return devices, trace, jobs


def snapshot(metrics):
    out = {
        "total_checkins": metrics.total_checkins,
        "total_responses": metrics.total_responses,
        "total_failures": metrics.total_failures,
        "total_aborts": metrics.total_aborts,
    }
    for job_id, jm in sorted(metrics.jobs.items()):
        out[job_id] = (
            jm.jct, tuple(jm.scheduling_delays), jm.rounds_completed,
            jm.aborted_rounds, jm.completed,
        )
    return out


def run_snapshot(policy_name, vectorized):
    devices, trace, jobs = small_scenario()
    policy = make_policy(policy_name, seed=3)
    config = SimulationConfig(
        horizon=30_000.0,
        seed=9,
        latency=LatencyConfig(compute_sigma=0.3, comm_min=5.0, comm_max=20.0),
        vectorized_dispatch=vectorized,
        enforce_daily_limit=True,
    )
    return snapshot(run_simulation(devices, trace, jobs, policy, config))


class TestVectorizedEngineIdentity:
    @pytest.mark.parametrize("policy_name", ["fifo", "srsf", "venn"])
    def test_matches_scalar_oracle(self, policy_name):
        scalar = run_snapshot(policy_name, vectorized=False)
        vec = run_snapshot(policy_name, vectorized=True)
        assert vec == scalar, f"vectorized({policy_name}) diverged"
