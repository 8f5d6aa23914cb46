"""Exact-resume contract: snapshot/restore is invisible to the simulation.

The load-bearing property (docs/RESILIENCE.md): a run killed at any event
boundary and resumed from any earlier snapshot finishes with the same
decision sequence and the same metrics as its uninterrupted twin — on the
single-queue engine and on the fleet engine alike.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.resilience import (
    LatestSnapshotStore,
    SimulatedCrash,
    SimulationSnapshot,
    SnapshotError,
    metrics_digest,
)
import repro.sim.engine as engine_module
from repro.resilience.snapshot import SNAPSHOT_FORMAT_VERSION
from repro.sim.engine import Simulator
from repro.sim.fleet import FleetSimulator
from tests.resilience.conftest import build_sim, kill_and_resume

ENGINE_MODES = [
    pytest.param({}, id="scalar"),
    pytest.param({"vectorized": True}, id="vectorized-1"),
    # The daily participation quota adds per-device day state and budget
    # refunds, which the snapshot must carry across the crash.
    pytest.param({"enforce_daily_limit": True}, id="scalar-daily"),
    pytest.param(
        {"vectorized": True, "enforce_daily_limit": True}, id="vectorized-daily"
    ),
]


def killed_mid_run(**mode) -> SimulationSnapshot:
    """The last periodic checkpoint of a run crashed at event 25."""
    store = LatestSnapshotStore()
    crashed = build_sim(
        crash_at_event=25, checkpoint_interval=10,
        checkpoint_sink=store, **mode,
    )
    with pytest.raises(SimulatedCrash):
        crashed.run()
    return store.latest


def end_device_state(sim: Simulator) -> list:
    """Each device's status, session end and last participation day, by id:
    the fleet engine's arrays, or the reference engine's runtimes."""
    if isinstance(sim, FleetSimulator):
        vec = sim._vec
        return sorted(
            zip(
                vec.profiles.device_id.tolist(), vec.status.tolist(),
                vec.sess.tolist(), vec.last_day.tolist(),
            )
        )
    return sorted(
        (device_id, d.status, d.session_end, d.last_participation_day)
        for device_id, d in sim._devices.items()
    )


class TestExactResume:
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_kill_and_resume_is_bit_identical(self, mode):
        reference, ref_metrics, resumed, res_metrics = kill_and_resume(
            at_event=25, checkpoint_every=10, **mode
        )
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)
        assert resumed.events_processed == reference.events_processed

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_kill_and_resume_leaves_the_same_device_state(self, mode):
        """Device state is not in the metrics: a resumed run must also end
        with every device where its uninterrupted twin left it."""
        reference, _, resumed, _ = kill_and_resume(
            at_event=25, checkpoint_every=10, **mode
        )
        expected = end_device_state(reference)
        assert len(expected) == 40
        assert end_device_state(resumed) == expected
        assert any(day is not None and day >= 0 for *_, day in expected)

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_crash_before_first_checkpoint_replays_from_scratch(self, mode):
        """With the crash earlier than any periodic checkpoint the fallback
        is the pre-run snapshot — a full, still bit-identical replay."""
        reference, ref_metrics, resumed, res_metrics = kill_and_resume(
            at_event=5, checkpoint_every=10_000, **mode
        )
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)

    def test_pre_run_snapshot_resumes_the_whole_run(self):
        reference = build_sim()
        ref_metrics = reference.run()
        fresh = build_sim()
        snap = fresh.snapshot()
        assert snap.started is False
        assert snap.events_processed == 0
        resumed = Simulator.resume(snap)
        res_metrics = resumed.run()
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)

    def test_post_run_snapshot_resumes_to_a_noop(self):
        sim = build_sim()
        metrics = sim.run()
        resumed = Simulator.resume(sim.snapshot())
        res_metrics = resumed.run()
        assert resumed.events_processed == sim.events_processed
        assert metrics_digest(res_metrics) == metrics_digest(metrics)


class TestDeviceStateAcrossSnapshots:
    """The fleet engine's device state is its arrays, and a snapshot carries
    them; the reference engine's is its ``DeviceRuntime`` objects."""

    def test_fleet_snapshots_carry_the_arrays_and_no_runtimes(self):
        snap = killed_mid_run(vectorized=True)
        assert snap.started
        resumed = Simulator.resume(snap, crash_at_event=None)
        assert not hasattr(resumed, "_devices")
        vec = resumed._vec
        assert len(vec.status) == len(vec.profiles) == 40
        assert int((vec.status != 0).sum()) > 0  # the checkpoint's state
        assert resumed.run().total_responses > 0

    def test_scalar_snapshots_still_carry_the_runtimes(self):
        sim = build_sim()  # single-queue: its runtimes are the state
        resumed = Simulator.resume(sim.snapshot())
        assert resumed._devices is not sim._devices
        assert list(resumed._devices) == list(sim._devices)


class TestCheckpointing:
    def test_interval_accounting(self):
        store = LatestSnapshotStore(keep_history=True)
        sim = build_sim(checkpoint_interval=10, checkpoint_sink=store)
        sim.run()
        expected = sim.events_processed // 10
        assert sim.checkpoints_taken == pytest.approx(expected, abs=1)
        assert store.count == sim.checkpoints_taken
        assert sim.checkpoint_time_s > 0.0
        # Snapshots arrive in event order, ~interval apart.
        marks = [snap.events_processed for snap in store.history]
        assert marks == sorted(marks)
        assert all(b - a >= 10 for a, b in zip(marks, marks[1:]))

    def test_checkpointing_is_pure_observation(self):
        """Decisions and metrics are bit-identical with checkpointing on."""
        plain = build_sim()
        plain_metrics = plain.run()
        observed = build_sim(
            checkpoint_interval=7, checkpoint_sink=LatestSnapshotStore()
        )
        observed_metrics = observed.run()
        assert observed.policy.decisions == plain.policy.decisions
        assert metrics_digest(observed_metrics) == metrics_digest(plain_metrics)

    def test_last_snapshot_kept_without_sink(self):
        sim = build_sim(checkpoint_interval=10)
        sim.run()
        assert sim.last_snapshot is not None
        assert sim.last_snapshot.events_processed <= sim.events_processed

    def test_snapshot_metadata_and_size(self):
        sim = build_sim()
        snap = sim.snapshot()
        assert isinstance(snap, SimulationSnapshot)
        assert len(snap.payload) > 0

    def test_resume_accepts_raw_bytes(self):
        sim = build_sim()
        snap = sim.snapshot()
        resumed = Simulator.resume(snap.payload)
        assert resumed.events_processed == 0

    def test_resume_rejects_foreign_payload(self):
        import pickle

        with pytest.raises(TypeError):
            Simulator.resume(pickle.dumps({"not": "a simulator"}))

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda payload: b"", id="empty"),
            pytest.param(lambda payload: payload[: len(payload) // 2],
                         id="truncated"),
            pytest.param(lambda payload: b"garbage", id="garbage"),
        ],
    )
    def test_resume_rejects_undecodable_payload(self, corrupt):
        """Corrupt bytes raise the typed error (with the pickle failure as
        its cause), whether passed raw or inside a snapshot."""
        snap = build_sim().snapshot()
        payload = corrupt(snap.payload)
        with pytest.raises(SnapshotError) as raw:
            Simulator.resume(payload)
        assert raw.value.__cause__ is not None
        with pytest.raises(SnapshotError):
            Simulator.resume(replace(snap, payload=payload))

    @pytest.mark.parametrize(
        "embedded", [SNAPSHOT_FORMAT_VERSION - 1, None], ids=["stale", "missing"]
    )
    def test_resume_rejects_stale_embedded_version(self, monkeypatch, embedded):
        """The version travels only inside the pickled state, so a payload
        written under another format is refused whether it comes raw or
        in a SimulationSnapshot."""
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", embedded)
        snap = build_sim(vectorized=True).snapshot()
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match=f"format version {embedded} "):
            Simulator.resume(snap.payload)
        with pytest.raises(SnapshotError, match=f"format version {embedded} "):
            Simulator.resume(snap)
        Simulator.resume(build_sim(vectorized=True).snapshot().payload)

    def test_resume_reattaches_checkpoint_sink(self):
        """The sink is dropped from snapshots and must be re-suppliable at
        resume time."""
        dropped = LatestSnapshotStore()
        snap = build_sim(checkpoint_interval=10, checkpoint_sink=dropped).snapshot()
        assert Simulator.resume(snap)._checkpoint_sink is None
        store = LatestSnapshotStore()
        resumed = Simulator.resume(snap, checkpoint_sink=store)
        resumed.run()
        assert store.count > 0
        assert dropped.count == 0

    def test_resumed_run_does_not_immediately_recheckpoint(self):
        """The checkpoint watermark travels with the snapshot: resuming
        right after a checkpoint must not take another one at once."""
        store = LatestSnapshotStore(keep_history=True)
        sim = build_sim(checkpoint_interval=10, checkpoint_sink=store)
        sim.run()
        resume_store = LatestSnapshotStore(keep_history=True)
        resumed = Simulator.resume(
            store.history[0], checkpoint_sink=resume_store
        )
        resumed.run()
        first_after = resume_store.history[0].events_processed
        assert first_after - store.history[0].events_processed >= 10


class TestLatestSnapshotStore:
    def _snap(self, events):
        return SimulationSnapshot(
            payload=b"x", events_processed=events, now=float(events),
            started=True,
        )

    def test_keeps_only_latest_by_default(self):
        store = LatestSnapshotStore()
        store(self._snap(1))
        store(self._snap(2))
        assert store.count == 2
        assert store.latest.events_processed == 2
        assert store.history == []

    def test_history_mode(self):
        store = LatestSnapshotStore(keep_history=True)
        for i in range(3):
            store(self._snap(i))
        assert [s.events_processed for s in store.history] == [0, 1, 2]
