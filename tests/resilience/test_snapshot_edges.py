"""Snapshot round-trips for awkward state: the cases most likely to hide a
reference that pickling silently severs.

Each test targets one state shape called out in the resilience design:
empty plan / zero open requests, a latency model mid link-flap window,
daily-budget parking across the midnight rollover, and the metrics of a
fleet-engine run.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.scheduler import VennScheduler
from repro.resilience import (
    LatestSnapshotStore,
    RecordingPolicy,
    SimulatedCrash,
    metrics_digest,
)
from repro.sim.engine import SimulationConfig, Simulator
from repro.sim.latency import LatencyConfig
from repro.traces.device_trace import DAY
from tests.conftest import make_device, make_job
from tests.resilience.conftest import build_sim, kill_and_resume
from tests.sim.test_engine import make_trace


def crash_resume(make_sim, at_event: int, checkpoint_every: int = 10):
    """Reference + kill-and-resume pair for an arbitrary builder closure."""
    reference = make_sim()
    ref_metrics = reference.run()
    assert at_event < reference.events_processed
    store = LatestSnapshotStore()
    crashed = make_sim(
        crash_at_event=at_event,
        checkpoint_interval=checkpoint_every,
        checkpoint_sink=store,
    )
    fallback = crashed.snapshot()
    with pytest.raises(SimulatedCrash):
        crashed.run()
    snapshot = store.latest if store.latest is not None else fallback
    resumed = Simulator.resume(snapshot, crash_at_event=None)
    res_metrics = resumed.run()
    return reference, ref_metrics, resumed, res_metrics


class TestDegenerateState:
    def test_zero_jobs_snapshot_round_trip(self):
        """Empty plan, zero open requests: nothing to schedule, nothing to
        break — before and after the (trivial) run."""
        sim = build_sim(jobs=[])
        resumed = Simulator.resume(sim.snapshot())
        metrics = resumed.run()
        assert metrics.jobs == {}
        assert resumed.policy.decisions == []
        # Post-run snapshot of the empty run resumes to a no-op too.
        again = Simulator.resume(resumed.snapshot())
        assert metrics_digest(again.run()) == metrics_digest(metrics)

    def test_resume_with_a_crash_point_arms_it(self):
        """A crash-free snapshot can be resumed *into* a crash — setting
        the crash point is part of the resume surface."""
        sim = build_sim()
        snap = sim.snapshot()
        armed = Simulator.resume(snap, crash_at_event=20)
        with pytest.raises(SimulatedCrash) as excinfo:
            armed.run()
        assert excinfo.value.events_processed >= 20

    def test_resume_keeps_pickled_crash_point_by_default(self):
        """Without ``crash_at_event=None`` a crash that had not fired at
        the checkpoint replays — the deterministic-replay default."""
        sim = build_sim(crash_at_event=20, checkpoint_interval=10)
        with pytest.raises(SimulatedCrash):
            sim.run()
        replayed = Simulator.resume(sim.last_snapshot)
        with pytest.raises(SimulatedCrash):
            replayed.run()


class TestMidFlapLatency:
    def test_kill_and_resume_inside_flap_windows(self):
        """Link-flap windows + lossy uplinks draw from per-device RNG
        streams whose counters must survive the snapshot exactly."""
        flappy = LatencyConfig(
            compute_sigma=0.3,
            loss_rate=0.05,
            flap_period=2_000.0,
            flap_duration=700.0,
            flap_loss_rate=0.6,
        )
        reference, ref_metrics, resumed, res_metrics = kill_and_resume(
            at_event=25, checkpoint_every=10, latency=flappy
        )
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)


class TestDayRollover:
    def _make_sim(self, **kwargs):
        """Two-day horizon, sessions spanning both days, daily limit on:
        devices park in the idle pool after participating and un-park at
        midnight — the crash lands after that rollover."""
        rng = np.random.default_rng(321)
        devices, sessions = [], []
        horizon = 2 * DAY
        for i in range(24):
            devices.append(
                make_device(
                    device_id=i,
                    cpu=float(rng.uniform(0, 1)),
                    mem=float(rng.uniform(0, 1)),
                    speed=float(rng.uniform(0.5, 3.0)),
                    reliability=0.9,
                )
            )
            sessions.append((i, float(rng.uniform(0, 2_000)), horizon))
        jobs = [
            make_job(1, demand=6, rounds=3, deadline=8_000.0,
                     base_task_duration=60.0),
            make_job(2, demand=4, rounds=2, arrival=DAY + 1_000.0,
                     deadline=8_000.0, base_task_duration=60.0),
        ]
        checkpoint_sink = kwargs.pop("checkpoint_sink", None)
        config = SimulationConfig(
            horizon=horizon,
            seed=99,
            latency=LatencyConfig(compute_sigma=0.3),
            enforce_daily_limit=True,
            **kwargs,
        )
        return Simulator(
            devices=devices,
            availability=make_trace(sessions),
            workload=jobs,
            policy=RecordingPolicy(VennScheduler()),
            config=config,
            checkpoint_sink=checkpoint_sink,
        )

    def test_kill_and_resume_across_the_rollover(self):
        probe = self._make_sim()
        probe_metrics = probe.run()
        # The second job must actually run on day two for the rollover
        # parking to matter.
        assert probe_metrics.jobs[2].rounds_completed > 0
        n_events = probe.events_processed
        at_event = max(2, int(n_events * 0.8))
        reference, ref_metrics, resumed, res_metrics = crash_resume(
            self._make_sim, at_event=at_event, checkpoint_every=5
        )
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)
        # Sanity: decisions exist on both sides of midnight.
        times = [t for (t, _, _) in reference.policy.decisions]
        assert min(times) < DAY < max(times)


class TestCancelledDeadlineEvents:
    """Completion-then-checkpoint ordering: completing a round pops the
    request's entry from ``_deadline_events`` and cancels the Event *in
    place* — the tombstone stays in the queue heap until lazily purged.  A
    checkpoint taken in that window must round-trip both sides
    consistently: live deadline events keep their dict/heap identity (the
    pickle memo), and cancelled tombstones stay out of the dict."""

    def _boundary_after_first_completion(self):
        probe = build_sim()
        completions = []
        closed = probe.policy.on_request_closed

        def on_request_closed(request, now):
            # Demand met and enough reports: the request closes because its
            # round completed (a deadline abort closes it short of either).
            if (
                request.remaining_demand == 0
                and len(request.responses) >= request.min_reports
            ):
                completions.append(probe.events_processed)
            closed(request, now)

        probe.policy.on_request_closed = on_request_closed
        probe.run()
        assert completions, "scenario must complete at least one round"
        return completions[0]

    def test_checkpoint_right_after_completion_round_trips(self):
        at_event = self._boundary_after_first_completion()
        # checkpoint_every=1 pins the snapshot to the crash boundary: the
        # cancelled deadline event (future-dated, so not yet lazily popped)
        # is inside the pickled heap.
        reference, ref_metrics, resumed, res_metrics = crash_resume(
            build_sim, at_event=at_event + 1, checkpoint_every=1
        )
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)

    def test_resumed_heap_and_deadline_map_stay_consistent(self):
        at_event = self._boundary_after_first_completion()
        store = LatestSnapshotStore()
        crashed = build_sim(
            crash_at_event=at_event + 1,
            checkpoint_interval=1,
            checkpoint_sink=store,
        )
        with pytest.raises(SimulatedCrash):
            crashed.run()
        resumed = Simulator.resume(store.latest, crash_at_event=None)
        heap_events = [entry[2] for entry in resumed.queue._heap]
        # The completed round's cancelled deadline survived the round trip
        # as a tombstone in the heap...
        assert any(
            ev.cancelled and ev.request_id is not None for ev in heap_events
        )
        # ...while every live entry of the deadline map is the *same
        # object* as its heap-resident event (cancel() after resume must
        # still reach the heap copy) and none is cancelled.
        assert resumed._deadline_events
        for ev in resumed._deadline_events.values():
            assert not ev.cancelled
            assert any(held is ev for held in heap_events)
        # The resumed run still matches its uninterrupted twin.
        reference = build_sim()
        ref_metrics = reference.run()
        res_metrics = resumed.run()
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)


class TestFleetMetrics:
    def test_fleet_metrics_nan_free_and_digest_stable(self):
        sim = build_sim(vectorized=True)
        metrics = sim.run()
        for jm in metrics.jobs.values():
            assert math.isfinite(jm.jct)
            for value in jm.scheduling_delays + jm.response_times:
                assert math.isfinite(value)
        for jct in metrics.job_jcts().values():
            assert math.isfinite(jct)
        # Byte-stable re-serialisation: the digest survives a pickle
        # round-trip of the metrics object itself.
        clone = pickle.loads(pickle.dumps(metrics))
        assert metrics_digest(clone) == metrics_digest(metrics)

    def test_resumed_fleet_counters_count_once(self):
        """The killed-and-resumed fleet run counts every check-in and
        response exactly once — a replayed event would double them."""
        reference, ref_metrics, resumed, res_metrics = kill_and_resume(
            at_event=25, checkpoint_every=10, vectorized=True
        )
        assert res_metrics.total_responses == ref_metrics.total_responses
        assert res_metrics.total_checkins == ref_metrics.total_checkins
