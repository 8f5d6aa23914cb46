"""Crash injection: validation, no-op guarantee, semantics.

``SimulationConfig(crash_at_event=N)`` is the one injected fault: the
coordinator dies with a :class:`~repro.resilience.SimulatedCrash` at the
first event boundary where at least ``N`` events have been processed.
"""

from __future__ import annotations

import pytest

from repro.resilience import LatestSnapshotStore, SimulatedCrash, metrics_digest
from repro.sim.engine import SimulationConfig, Simulator
from tests.resilience.conftest import build_sim

ENGINES = pytest.mark.parametrize(
    "vectorized", [False, True], ids=["reference", "fleet"]
)

#: From the first event boundary to one late in the 44-event run.
CRASH_POINTS = (0, 1, 10, 20, 35)


class TestValidation:
    def test_crash_point_is_a_non_negative_int(self):
        with pytest.raises(ValueError, match="crash_at_event"):
            SimulationConfig(crash_at_event=-1)
        for bad in (2.5, True, "3"):
            with pytest.raises(TypeError, match="crash_at_event"):
                SimulationConfig(crash_at_event=bad)

    def test_both_engines_host_it_from_event_zero(self):
        for vectorized in (False, True):
            config = SimulationConfig(
                crash_at_event=0, vectorized_dispatch=vectorized
            )
            assert config.crash_at_event == 0

    def test_resume_goes_through_the_same_rule(self):
        snapshot = build_sim().snapshot()
        with pytest.raises(ValueError, match="crash_at_event"):
            Simulator.resume(snapshot, crash_at_event=-5)


class TestNoOpGuarantee:
    @ENGINES
    def test_crash_point_past_the_run_is_bit_identical(self, vectorized):
        """A crash point the run never reaches must not perturb it."""
        plain = build_sim(vectorized=vectorized)
        plain_metrics = plain.run()
        armed = build_sim(vectorized=vectorized, crash_at_event=10**9)
        armed_metrics = armed.run()
        assert armed.policy.decisions == plain.policy.decisions
        assert metrics_digest(armed_metrics) == metrics_digest(plain_metrics)
        assert armed.events_processed == plain.events_processed


class TestCoordinatorCrash:
    @ENGINES
    def test_crash_carries_progress(self, vectorized):
        sim = build_sim(vectorized=vectorized, crash_at_event=20)
        with pytest.raises(SimulatedCrash) as excinfo:
            sim.run()
        crash = excinfo.value
        assert crash.events_processed >= 20
        assert crash.events_processed == sim.events_processed
        assert crash.now == sim.now
        assert f"after {crash.events_processed} events" in str(crash)

    @ENGINES
    @pytest.mark.parametrize("at_event", CRASH_POINTS)
    def test_state_is_consistent_at_the_crash_boundary(
        self, vectorized, at_event
    ):
        """The crash fires between events (between stream batches on the
        fleet engine): the survivor snapshot resumes to the uninterrupted
        result, the chaos harness's core assumption — from the first
        boundary to one late in the run."""
        reference = build_sim(vectorized=vectorized)
        ref_metrics = reference.run()
        sim = build_sim(vectorized=vectorized, crash_at_event=at_event)
        with pytest.raises(SimulatedCrash):
            sim.run()
        assert at_event <= sim.events_processed < reference.events_processed
        resumed = Simulator.resume(sim.snapshot(), crash_at_event=None)
        res_metrics = resumed.run()
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)
        assert resumed.events_processed == reference.events_processed

    @ENGINES
    def test_a_passed_crash_point_fires_again_unless_cleared(self, vectorized):
        """The crash point is configuration, not a one-shot: the crashed
        simulator's own snapshot still carries it, so resuming with it kept
        dies at the next boundary."""
        sim = build_sim(vectorized=vectorized, crash_at_event=20)
        with pytest.raises(SimulatedCrash):
            sim.run()
        with pytest.raises(SimulatedCrash) as again:
            Simulator.resume(sim.snapshot()).run()
        assert again.value.events_processed > sim.events_processed

    @ENGINES
    def test_resume_moves_the_crash_point(self, vectorized):
        """``resume(crash_at_event=N)`` arms a pristine snapshot exactly as
        building the run with ``N`` does: same boundary, same clock, same
        decisions before it."""
        built = build_sim(vectorized=vectorized, crash_at_event=30)
        with pytest.raises(SimulatedCrash) as expected:
            built.run()
        pristine = build_sim(vectorized=vectorized, crash_at_event=20)
        moved = Simulator.resume(pristine.snapshot(), crash_at_event=30)
        assert moved.config.crash_at_event == 30
        with pytest.raises(SimulatedCrash) as crash:
            moved.run()
        assert crash.value.events_processed == expected.value.events_processed
        assert crash.value.now == expected.value.now
        assert moved.policy.decisions == built.policy.decisions

    @ENGINES
    def test_the_checkpoint_at_the_crash_boundary_is_taken_first(
        self, vectorized
    ):
        """A boundary due for both a checkpoint and the crash checkpoints
        first, so the newest checkpoint is the crash state itself and
        resuming it (crash cleared) loses no event."""
        reference = build_sim(vectorized=vectorized)
        ref_metrics = reference.run()
        store = LatestSnapshotStore()
        sim = build_sim(
            vectorized=vectorized, crash_at_event=40, checkpoint_interval=1,
            checkpoint_sink=store,
        )
        with pytest.raises(SimulatedCrash) as crash:
            sim.run()
        assert store.latest.events_processed == crash.value.events_processed
        assert store.latest.now == crash.value.now
        resumed = Simulator.resume(store.latest, crash_at_event=None)
        assert metrics_digest(resumed.run()) == metrics_digest(ref_metrics)
        assert resumed.policy.decisions == reference.policy.decisions
