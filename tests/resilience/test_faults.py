"""Declarative fault injection: validation, no-op guarantee, semantics."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest

from repro.resilience import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    LatestSnapshotStore,
    SimulatedCrash,
    metrics_digest,
)
from repro.sim.engine import SimulationConfig, Simulator
from tests.resilience.conftest import build_sim


class TestFaultSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike", 1)

    def test_negative_at_event(self):
        with pytest.raises(ValueError, match="at_event"):
            FaultSpec("coordinator_crash", -1)

    def test_three_kinds(self):
        assert FAULT_KINDS == {"coordinator_crash", "kill_shard", "stall_shard"}
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("drop_plan_broadcast", 1)

    def test_outages_need_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec("kill_shard", 1, duration=0.0)
        with pytest.raises(ValueError, match="duration"):
            FaultSpec("stall_shard", 1, duration=-5.0)

    def test_crash_needs_no_duration_and_may_fire_at_event_zero(self):
        spec = FaultSpec("coordinator_crash", 0)
        assert spec.at_event == 0 and spec.duration == 0.0


class TestFaultPlan:
    def test_constructors(self):
        assert FaultPlan.crash_at(5).faults[0].kind == "coordinator_crash"
        kill = FaultPlan.kill_shard(at_event=5, duration=100.0)
        assert kill.faults[0].duration == 100.0
        assert kill.needs_sharded_engine
        stall = FaultPlan.stall_shard(at_event=5, duration=50.0)
        assert stall.faults[0].kind == "stall_shard"

    def test_crash_plan_does_not_need_sharded_engine(self):
        assert not FaultPlan.crash_at(5).needs_sharded_engine

    def test_stall_plan_needs_sharded_engine(self):
        assert FaultPlan.stall_shard(at_event=5, duration=50.0).needs_sharded_engine

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError):
            FaultPlan(("kill_shard",))

    def test_composed_plan_is_a_frozen_picklable_value(self):
        """Snapshots embed the plan (inside the config and the injector)."""
        specs = [FaultSpec("kill_shard", 9, 10.0), FaultSpec("coordinator_crash", 3)]
        plan = FaultPlan(specs)
        assert plan.faults == tuple(specs)  # a list is frozen to a tuple
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert hash(plan) == hash(FaultPlan(tuple(specs)))
        with pytest.raises(FrozenInstanceError):
            plan.faults = ()


class TestValidation:
    """Plans the engine cannot host fail when the config is built — before
    any fleet is — and ``resume(fault_plan=...)`` goes through the same rule."""

    KILL = dict(at_event=5, duration=100.0)

    def test_shard_fault_on_single_queue_engine_rejected(self):
        plan = FaultPlan.kill_shard(**self.KILL)
        with pytest.raises(ValueError, match="fleet engine"):
            SimulationConfig(fault_plan=plan)
        SimulationConfig(fault_plan=plan, vectorized_dispatch=True)

    def test_stall_fault_on_single_queue_engine_rejected(self):
        plan = FaultPlan.stall_shard(**self.KILL)
        with pytest.raises(ValueError, match="fleet engine"):
            SimulationConfig(fault_plan=plan)
        SimulationConfig(fault_plan=plan, vectorized_dispatch=True)

    def test_crash_plan_hosted_by_both_engines(self):
        for vectorized in (False, True):
            config = SimulationConfig(
                fault_plan=FaultPlan.crash_at(5), vectorized_dispatch=vectorized
            )
            assert config.fault_plan.faults[0].kind == "coordinator_crash"

    def test_non_plan_rejected(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            SimulationConfig(fault_plan=[FaultSpec("coordinator_crash", 1)])

    def test_resume_rejects_unhostable_plan(self):
        snapshot = build_sim().snapshot()
        with pytest.raises(ValueError, match="fleet engine"):
            Simulator.resume(
                snapshot, fault_plan=FaultPlan.kill_shard(**self.KILL)
            )

    def test_resume_swaps_a_stream_plan_onto_a_fleet_snapshot(self):
        """A pristine fleet snapshot resumed under a kill plan runs the
        kill — exactly as a run built with that plan does."""
        plan = FaultPlan.kill_shard(**self.KILL)
        resumed = Simulator.resume(
            build_sim(vectorized=True).snapshot(), fault_plan=plan
        )
        assert resumed.config.fault_plan == plan
        metrics = resumed.run()
        built = build_sim(vectorized=True, fault_plan=plan)
        assert metrics_digest(metrics) == metrics_digest(built.run())
        assert resumed.fault_stats() == built.fault_stats()
        assert resumed.fault_stats()["shards_killed"] == 1


class TestNoOpGuarantee:
    @pytest.mark.parametrize(
        "vectorized", [False, True], ids=["reference", "fleet"]
    )
    def test_never_firing_plan_is_bit_identical(self, vectorized):
        """A plan whose faults never come due must not perturb the run."""
        plain = build_sim(vectorized=vectorized)
        plain_metrics = plain.run()
        armed = build_sim(
            vectorized=vectorized, fault_plan=FaultPlan.crash_at(10**9)
        )
        armed_metrics = armed.run()
        assert armed.policy.decisions == plain.policy.decisions
        assert metrics_digest(armed_metrics) == metrics_digest(plain_metrics)
        assert armed.fault_stats()["faults_fired"] == 0

    def test_never_firing_stream_plan_is_bit_identical(self):
        """An armed-but-idle outage plan leaves the stream pristine too."""
        plain = build_sim(vectorized=True)
        plain_metrics = plain.run()
        plan = FaultPlan(
            (
                FaultSpec("kill_shard", 10**9, duration=5_000.0),
                FaultSpec("stall_shard", 10**9, duration=5_000.0),
            )
        )
        armed = build_sim(vectorized=True, fault_plan=plan)
        armed_metrics = armed.run()
        assert armed.policy.decisions == plain.policy.decisions
        assert metrics_digest(armed_metrics) == metrics_digest(plain_metrics)
        assert all(v == 0 for v in armed.fault_stats().values())
        assert armed._shard.down_until == 0.0

    def test_no_plan_means_all_zero_stats(self):
        sim = build_sim(vectorized=True)
        sim.run()
        assert all(v == 0 for v in sim.fault_stats().values())


class TestCoordinatorCrash:
    def test_crash_carries_progress(self):
        sim = build_sim(fault_plan=FaultPlan.crash_at(20))
        with pytest.raises(SimulatedCrash) as excinfo:
            sim.run()
        crash = excinfo.value
        assert crash.events_processed >= 20
        assert crash.events_processed == sim.events_processed
        assert crash.now == sim.now
        assert sim.fault_stats()["crashes"] == 1

    def test_state_is_consistent_at_the_crash_boundary(self):
        """The crash fires between events: the survivor snapshot resumes to
        the uninterrupted result (the chaos harness's core assumption)."""
        reference = build_sim()
        ref_metrics = reference.run()
        sim = build_sim(fault_plan=FaultPlan.crash_at(20))
        with pytest.raises(SimulatedCrash):
            sim.run()
        from repro.sim.engine import Simulator

        resumed = Simulator.resume(sim.snapshot(), fault_plan=None)
        res_metrics = resumed.run()
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)

    def test_fleet_crash_boundary_resumes_to_the_uninterrupted_result(self):
        """The same boundary guarantee on the fleet engine, whose crash
        lands between stream batches."""
        reference = build_sim(vectorized=True)
        ref_metrics = reference.run()
        sim = build_sim(vectorized=True, fault_plan=FaultPlan.crash_at(20))
        with pytest.raises(SimulatedCrash):
            sim.run()
        assert sim.fault_stats()["crashes"] == 1
        resumed = Simulator.resume(sim.snapshot(), fault_plan=None)
        res_metrics = resumed.run()
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)
        assert resumed.events_processed == reference.events_processed


KILL = FaultPlan.kill_shard(at_event=10, duration=5_000.0)
STALL = FaultPlan.stall_shard(at_event=10, duration=2_000.0)


class TestShardFaults:
    """Every test proves its faults fired (``faults_fired`` equals the plan
    length) and changed something the stream observed — a fault that never
    fires would pass every other assertion here."""

    def _run_with(self, plan, **kwargs):
        sim = build_sim(vectorized=True, fault_plan=plan, **kwargs)
        metrics = sim.run()
        assert sim.fault_stats()["faults_fired"] == len(plan.faults)
        return sim, metrics

    def test_kill_shard_fires_and_counts(self):
        sim, _ = self._run_with(KILL)
        stats = sim.fault_stats()
        assert stats["shards_killed"] == 1
        # The outage must actually degrade something the stream observed:
        # skipped device events and/or failed responses.
        assert (
            stats["shard_static_skipped"]
            + stats["shard_responses_failed_by_fault"]
        ) > 0

    def test_stall_shard_fires_and_counts(self):
        sim, _ = self._run_with(STALL)
        stats = sim.fault_stats()
        assert stats["shards_stalled"] == 1
        assert stats["shard_responses_delayed_by_fault"] > 0

    @pytest.mark.parametrize("plan", [KILL, STALL], ids=["kill", "stall"])
    def test_faulty_runs_replay_deterministically(self, plan):
        """Same plan, same seed => bit-identical degraded run."""
        a, a_metrics = self._run_with(plan)
        b, b_metrics = self._run_with(plan)
        stats = a.fault_stats()
        assert sum(v for k, v in stats.items() if k.startswith("shard_")) > 0
        assert a.policy.decisions == b.policy.decisions
        assert metrics_digest(a_metrics) == metrics_digest(b_metrics)
        assert stats == b.fault_stats()

    def test_kill_shard_changes_the_run(self):
        """A long outage must be visible in the outcome — otherwise the
        chaos layer is injecting placebos."""
        plain = build_sim(vectorized=True)
        plain_metrics = plain.run()
        sim, metrics = self._run_with(
            FaultPlan.kill_shard(at_event=10, duration=20_000.0)
        )
        assert sim.fault_stats()["shard_responses_failed_by_fault"] > 0
        assert metrics_digest(metrics) != metrics_digest(plain_metrics)

    def test_stall_shard_changes_the_run(self):
        """A stall moves deliveries in time, and that shows in the metrics
        (response times, round ends) even though no outcome changes."""
        plain = build_sim(vectorized=True)
        plain_metrics = plain.run()
        sim, metrics = self._run_with(STALL)
        assert sim.fault_stats()["shard_responses_failed_by_fault"] == 0
        assert metrics_digest(metrics) != metrics_digest(plain_metrics)

    def test_kill_and_stall_compose_in_one_plan(self):
        plan = FaultPlan(
            (
                FaultSpec("kill_shard", 10, duration=1_000.0),
                FaultSpec("stall_shard", 60, duration=1_000.0),
            )
        )
        sim, _ = self._run_with(plan)
        stats = sim.fault_stats()
        assert stats["shards_killed"] == stats["shards_stalled"] == 1
        assert stats["shard_responses_delayed_by_fault"] > 0
        assert (
            stats["shard_static_skipped"]
            + stats["shard_responses_failed_by_fault"]
        ) > 0

    def test_resumed_run_replays_unfired_stream_faults(self):
        """A checkpoint taken before the kill fires carries the pending
        fault: resuming it (plan kept) replays the faulted run exactly."""
        plan = FaultPlan.kill_shard(at_event=30, duration=5_000.0)
        reference, ref_metrics = self._run_with(plan)
        store = LatestSnapshotStore(keep_history=True)
        checkpointed = build_sim(
            vectorized=True, fault_plan=plan, checkpoint_interval=10,
            checkpoint_sink=store,
        )
        checkpointed.run()
        early = store.history[0]
        assert early.events_processed < 30
        resumed = Simulator.resume(early)
        res_metrics = resumed.run()
        assert resumed.fault_stats() == reference.fault_stats()
        assert resumed.policy.decisions == reference.policy.decisions
        assert metrics_digest(res_metrics) == metrics_digest(ref_metrics)


class _FakeSim:
    """What :meth:`FaultInjector.poll` reads of a simulator."""

    def __init__(self, events: int) -> None:
        self._events_processed = events
        self.now = 123.0
        self.calls = []
        self._shard = SimpleNamespace(
            kill_until=lambda end: self.calls.append(("kill", end)),
            delay_responses_until=lambda end: self.calls.append(("stall", end)),
        )


class TestInjector:
    def test_faults_fire_in_at_event_order(self):
        plan = FaultPlan(
            (
                FaultSpec("kill_shard", 30, duration=5.0),
                FaultSpec("stall_shard", 10, duration=7.0),
            )
        )
        injector = FaultInjector(plan)
        sim = _FakeSim(events=30)
        injector.poll(sim)
        assert sim.calls == [("stall", 130.0), ("kill", 128.0)]

    def test_poll_fires_only_due_faults_and_each_once(self):
        injector = FaultInjector(
            FaultPlan(
                (
                    FaultSpec("stall_shard", 5, duration=1.0),
                    FaultSpec("kill_shard", 50, duration=1.0),
                )
            )
        )
        sim = _FakeSim(events=4)
        injector.poll(sim)
        assert sim.calls == [] and injector.stats["faults_fired"] == 0
        sim._events_processed = 5
        injector.poll(sim)
        injector.poll(sim)
        assert sim.calls == [("stall", 124.0)]
        assert not injector.exhausted
        sim._events_processed = 50
        injector.poll(sim)
        assert [kind for kind, _ in sim.calls] == ["stall", "kill"]
        assert injector.exhausted
        assert injector.stats == {
            "faults_fired": 2, "crashes": 0,
            "shards_killed": 1, "shards_stalled": 1,
        }

    def test_crash_poll_raises_with_progress(self):
        injector = FaultInjector(FaultPlan.crash_at(3))
        with pytest.raises(SimulatedCrash) as excinfo:
            injector.poll(_FakeSim(events=7))
        assert excinfo.value.events_processed == 7
        assert excinfo.value.now == 123.0
        assert injector.stats["crashes"] == 1 and injector.exhausted

    def test_same_event_faults_fire_in_declaration_order(self):
        plan = FaultPlan(
            (
                FaultSpec("stall_shard", 10, duration=100.0),
                FaultSpec("kill_shard", 10, duration=100.0),
            )
        )
        injector = FaultInjector(plan)
        assert [f.kind for f in injector._pending] == [
            "stall_shard",
            "kill_shard",
        ]

    def test_exhausted(self):
        injector = FaultInjector(FaultPlan())
        assert injector.exhausted
