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
from repro.sim.reference import ReferenceSimulator
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
        assert snap.started and snap.format_version == SNAPSHOT_FORMAT_VERSION == 16
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

    def test_resume_rejects_other_format_version(self):
        snap = build_sim().snapshot()
        stale = replace(snap, format_version=snap.format_version + 1)
        with pytest.raises(SnapshotError, match="format version"):
            Simulator.resume(stale)

    @pytest.mark.parametrize(
        "embedded", [SNAPSHOT_FORMAT_VERSION - 1, None], ids=["stale", "missing"]
    )
    def test_resume_rejects_stale_embedded_version(self, monkeypatch, embedded):
        """The version travels inside the pickled state, so a raw payload
        written under another format is refused too — and so is one
        wrapped in a current-version SimulationSnapshot."""
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", embedded)
        snap = build_sim(vectorized=True).snapshot()
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match=f"format version {embedded} "):
            Simulator.resume(snap.payload)
        with pytest.raises(SnapshotError, match=f"format version {embedded} "):
            Simulator.resume(replace(snap, format_version=SNAPSHOT_FORMAT_VERSION))
        Simulator.resume(build_sim(vectorized=True).snapshot().payload)

    def test_format_5_fleet_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 5 stored the stream as five event columns (``sa_seq``,
        ``sa_send`` and ``sa_ci`` beside ``sa_time`` and an int64
        ``sa_slot``) where format 6 keeps ``sa_code`` + ``se_end`` and the
        stream's ``seq0``.  Such a payload would unpickle and then fail
        mid-run on a missing attribute; the version check refuses it before
        anything runs."""
        sim = Simulator.resume(killed_mid_run(vectorized=True))
        stream = sim._stream
        code = stream.sa_code
        format_5_columns = {
            "sa_time": stream.sa_time,
            "sa_seq": code.astype("int64") + stream.seq0,
            "sa_slot": stream.sa_slot.astype("int64"),
            "sa_send": stream.se_end[code >> 1],
            "sa_ci": (code & 1) == 0,
        }
        for name in ("sa_code", "se_end", "seq0"):
            delattr(stream, name)
        stream.__dict__.update(format_5_columns)
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 5)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 5 "):
            Simulator.resume(payload)
        # Without the check the stale graph gets as far as the first read.
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        with pytest.raises(AttributeError, match="sa_code|se_end|seq0"):
            Simulator.resume(payload, crash_at_event=None).run()

    def test_format_6_fault_plan_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 6 armed a crash through a ``fault_plan`` config field and
        a fault injector on the simulator, and its stream carried four fault
        fields; format 7 keeps one ``crash_at_event`` config field.  Such a
        payload would resume, fall back to the class default
        ``crash_at_event=None`` and silently lose the crash it was armed
        with; the version check refuses it before anything runs."""
        sim = Simulator.resume(killed_mid_run(vectorized=True))
        assert sim.config.crash_at_event == 25  # pending at the checkpoint
        vars(sim.config)["fault_plan"] = vars(sim.config).pop("crash_at_event")
        sim.__dict__["_injector"] = None
        sim._stream.__dict__.update(
            down_until=0.0, static_skipped=0,
            responses_failed_by_fault=0, responses_delayed_by_fault=0,
        )
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 6)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 6 "):
            Simulator.resume(payload)
        # Without the check the stale graph runs to the end: no crash.
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        stale = Simulator.resume(payload)
        assert stale.run().total_responses > 0
        assert stale.events_processed > 25

    def test_format_7_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 7 pickled the simulator's round-callback slot (always
        ``None`` in the payload); format 8 has no such attribute.  The
        graph lost an attribute, so the version moved and a format-7
        payload is refused before anything runs."""
        sim = Simulator.resume(killed_mid_run(vectorized=True))
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 7)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 7 "):
            Simulator.resume(payload)

    def test_format_8_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 8 pickled the population as a list of ``DeviceProfile``
        objects (the simulator's and the vector state's); format 9 pickles
        one ``DeviceFleet`` of columns.  Such a payload would resume and
        then fail at its first outcome draw, which reads the fleet's
        columns; the version check refuses it before anything runs."""
        sim = Simulator.resume(killed_mid_run(vectorized=True))
        assert sim._stream.heap  # tasks are in flight at the crash
        profiles = list(sim._device_profiles)
        sim._device_profiles = profiles
        sim._vec.profiles = profiles
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 8)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 8 "):
            Simulator.resume(payload)
        # Without the check the stale graph gets as far as the first draw.
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        with pytest.raises(AttributeError, match="'device_id'"):
            Simulator.resume(payload, crash_at_event=None).run()

    def test_format_9_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 9 pickled the single-queue engine's idle-device pool
        (signature buckets and a parking calendar); format 10 pickles a
        plain set of idle device ids.  A real format-9 payload names the
        deleted pool class and fails to decode; one that decodes but lacks
        the idle set is refused by the version check before anything
        runs."""
        store = LatestSnapshotStore()
        crashed = build_sim(
            crash_at_event=25, checkpoint_interval=10, checkpoint_sink=store
        )
        with pytest.raises(SimulatedCrash):
            crashed.run()
        sim = Simulator.resume(store.latest)
        assert isinstance(sim, ReferenceSimulator)
        assert sim._idle  # idle devices at the checkpoint
        del sim._idle
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 9)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 9 "):
            Simulator.resume(payload)
        # Without the check the stale graph gets as far as the first
        # idle-set update.
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        with pytest.raises(AttributeError, match="'_idle'"):
            Simulator.resume(payload, crash_at_event=None).run()

    def test_format_10_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 10 pickled each Venn job's profile as a
        ``JobMatchingProfile`` under ``TierMatcher.profile``; format 11
        pickles the matcher's own history and the tiers fitted at the last
        round close (``fit``).  A real format-10 payload names the deleted
        class and fails to decode; one that decodes but lacks the matcher's
        history is refused by the version check before anything runs."""
        sim = Simulator.resume(killed_mid_run(vectorized=True))
        assert sim.policy._matchers  # jobs are running at the checkpoint
        for matcher in sim.policy._matchers.values():
            # The format-10 shape: the history lived on the profile.
            for name in ("_capacities", "_response_times", "_sched_delays",
                         "_collect_times", "fit"):
                delattr(matcher, name)
            matcher.profile = None
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 10)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 10 "):
            Simulator.resume(payload)
        # Without the check the stale graph gets as far as the first
        # response it profiles.
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        with pytest.raises(AttributeError, match="'_capacities'"):
            Simulator.resume(payload, crash_at_event=None).run()

    def test_format_11_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 11 pickled no fleet binding on the policy: Venn kept a
        per-device signature cache fed by a signature provider (on the
        fleet engine, a bound method of the vector state).  A real
        format-11 fleet payload names the deleted method and fails to
        decode; one that decodes but lacks the binding is refused by the
        version check before anything runs."""
        sim = Simulator.resume(killed_mid_run(vectorized=True))
        venn = sim.policy._inner
        for name in ("fleet", "sig_ids", "sig_table"):
            del venn.__dict__[name]
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 11)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 11 "):
            Simulator.resume(payload)
        # Without the check the stale graph gets as far as the first
        # device it looks up.
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        with pytest.raises(AttributeError, match="'row'"):
            Simulator.resume(payload, crash_at_event=None).run()

    def test_format_12_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 12 pickled Venn's ``enable_reallocation``, ``demand_mode``
        and ``plan_rebuilds`` and the latency config's ``duration_scale``.
        A format-12 payload decodes, but a run resumed from it would drop
        any of those knobs it was armed with; the version check refuses it
        first."""
        sim = Simulator.resume(killed_mid_run(vectorized=True))
        venn = sim.policy._inner
        venn.__dict__.update(
            enable_reallocation=False, demand_mode="round", plan_rebuilds=3
        )
        sim.config.latency.__dict__["duration_scale"] = 2.0
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 12)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 12 "):
            Simulator.resume(payload)
        # Without the check the stale knobs are silently ignored: the run
        # is the one an unarmed snapshot gives.
        plain = Simulator.resume(
            killed_mid_run(vectorized=True), crash_at_event=None
        )
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        stale = Simulator.resume(payload, crash_at_event=None)
        assert stale.run().job_jcts() == plain.run().job_jcts()

    def test_format_14_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 14 pickled one ``Simulator`` class for both engines, told
        apart by a ``_fleet`` flag, and the fleet engine's stream as a
        ``repro.sim.shard.DeviceShard``; format 15 pickles the engine's own
        class and a ``repro.sim.stream.DeviceStream``.  A real format-14
        fleet payload names the deleted module and fails to decode; a
        reference one decodes — as the fleet engine, the one ``Simulator``
        picks when unpickling calls it without a config — and is refused
        by the version check before anything runs."""
        store = LatestSnapshotStore()
        crashed = build_sim(
            crash_at_event=25, checkpoint_interval=10, checkpoint_sink=store
        )
        with pytest.raises(SimulatedCrash):
            crashed.run()
        sim = Simulator.resume(store.latest)
        assert type(sim) is ReferenceSimulator
        sim.__class__ = Simulator  # the format-14 shape
        sim.__dict__.update(_fleet=False, _shard=None, _vec=None)
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 14)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 14 "):
            Simulator.resume(payload)
        # Without the check the reference state resumes as the fleet
        # engine and fails at its first read of the device stream.
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        stale = Simulator.resume(payload, crash_at_event=None)
        assert type(stale) is FleetSimulator
        with pytest.raises(AttributeError, match="'_stream'"):
            stale.run()

    def test_format_15_snapshot_is_refused_up_front(self, monkeypatch):
        """Format 15 pickled three records of a request's assignments, each
        job's request history, per-device task counters, each event's
        sequence number and a job id in every response-heap row; format 16
        keeps one ``device_id -> time`` dict and drops the rest.  A real
        format-15 fleet payload decodes, and a run resumed from it fails
        at the first response it pops; the version check refuses it
        first."""
        sim = Simulator.resume(killed_mid_run(vectorized=True))
        heap = sim._stream.heap
        assert heap  # responses are in flight at the crash
        heap[:] = [  # the format-15 row: (time, seq, slot, request, job, ok)
            (t, seq, slot, rid, sim._requests[rid].job_id, ok)
            for t, seq, slot, rid, ok in heap
        ]
        monkeypatch.setattr(engine_module, "SNAPSHOT_FORMAT_VERSION", 15)
        payload = sim.snapshot().payload
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="format version 15 "):
            Simulator.resume(payload)
        monkeypatch.setattr(
            engine_module, "_check_format_version", lambda version: None
        )
        stale = Simulator.resume(payload, crash_at_event=None)
        with pytest.raises(ValueError, match="too many values to unpack"):
            stale.run()

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
