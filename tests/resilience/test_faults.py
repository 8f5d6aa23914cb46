"""Declarative fault injection: validation, no-op guarantee, semantics."""

from __future__ import annotations

import pytest

from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
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

    def test_shard_faults_need_shard(self):
        with pytest.raises(ValueError, match="shard index"):
            FaultSpec("kill_shard", 1, duration=10.0)

    def test_crash_must_not_target_a_shard(self):
        with pytest.raises(ValueError, match="does not target a shard"):
            FaultSpec("coordinator_crash", 1, shard=0)

    def test_outages_need_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec("kill_shard", 1, shard=0, duration=0.0)
        with pytest.raises(ValueError, match="duration"):
            FaultSpec("stall_shard", 1, shard=0, duration=-5.0)

    def test_drop_needs_positive_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            FaultSpec("drop_plan_broadcast", 1, shard=0, backoff=0.0)


class TestFaultPlan:
    def test_constructors(self):
        assert FaultPlan.crash_at(5).faults[0].kind == "coordinator_crash"
        kill = FaultPlan.kill_shard(1, at_event=5, duration=100.0)
        assert kill.faults[0].shard == 1
        assert kill.needs_sharded_engine
        stall = FaultPlan.stall_shard(0, at_event=5, duration=50.0)
        assert stall.faults[0].kind == "stall_shard"
        drop = FaultPlan.drop_plan_broadcast(1, at_event=5, backoff=30.0)
        assert drop.faults[0].backoff == 30.0

    def test_crash_plan_does_not_need_sharded_engine(self):
        plan = FaultPlan.crash_at(5)
        assert not plan.needs_sharded_engine
        assert plan.max_shard == -1

    def test_max_shard(self):
        plan = FaultPlan(
            (
                FaultSpec("kill_shard", 1, shard=3, duration=10.0),
                FaultSpec("stall_shard", 2, shard=1, duration=10.0),
            )
        )
        assert plan.max_shard == 3

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError):
            FaultPlan(("kill_shard",))


class TestValidation:
    """Plans the engine cannot host fail when the config is built — before
    any fleet is — and ``resume(fault_plan=...)`` goes through the same rule."""

    KILL = dict(at_event=5, duration=100.0)

    def test_shard_fault_on_single_queue_engine_rejected(self):
        with pytest.raises(ValueError, match="coordinator/shard engine"):
            SimulationConfig(fault_plan=FaultPlan.kill_shard(0, **self.KILL))
        plan = FaultPlan.kill_shard(0, **self.KILL)
        SimulationConfig(fault_plan=plan, vectorized_dispatch=True)
        SimulationConfig(fault_plan=plan, num_shards=2)

    def test_shard_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="shard 7 but the run has only 2"):
            SimulationConfig(
                num_shards=2, fault_plan=FaultPlan.kill_shard(7, **self.KILL)
            )

    @pytest.mark.parametrize(
        "num_shards, shard, message",
        [(1, 0, "coordinator/shard engine"), (2, 7, "shard 7")],
    )
    def test_resume_rejects_unhostable_plan(self, num_shards, shard, message):
        snapshot = build_sim(num_shards=num_shards).snapshot()
        with pytest.raises(ValueError, match=message):
            Simulator.resume(
                snapshot, fault_plan=FaultPlan.kill_shard(shard, **self.KILL)
            )


class TestNoOpGuarantee:
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_never_firing_plan_is_bit_identical(self, num_shards):
        """A plan whose faults never come due must not perturb the run."""
        plain = build_sim(num_shards=num_shards)
        plain_metrics = plain.run()
        armed = build_sim(
            num_shards=num_shards, fault_plan=FaultPlan.crash_at(10**9)
        )
        armed_metrics = armed.run()
        assert armed.policy.decisions == plain.policy.decisions
        assert metrics_digest(armed_metrics) == metrics_digest(plain_metrics)
        assert armed.fault_stats()["faults_fired"] == 0

    def test_no_plan_means_all_zero_stats(self):
        sim = build_sim(num_shards=2)
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


class TestShardFaults:
    def _run_with(self, plan, **kwargs):
        sim = build_sim(num_shards=2, fault_plan=plan, **kwargs)
        metrics = sim.run()
        return sim, metrics

    def test_kill_shard_fires_and_counts(self):
        sim, _ = self._run_with(
            FaultPlan.kill_shard(0, at_event=10, duration=5_000.0)
        )
        stats = sim.fault_stats()
        assert stats["faults_fired"] == 1
        assert stats["shards_killed"] == 1
        # The outage must actually degrade something the shard observed:
        # skipped device events and/or failed responses.
        assert (
            stats.get("shard_static_skipped", 0)
            + stats.get("shard_responses_failed_by_fault", 0)
        ) > 0

    def test_stall_shard_fires_and_counts(self):
        sim, _ = self._run_with(
            FaultPlan.stall_shard(0, at_event=10, duration=2_000.0)
        )
        stats = sim.fault_stats()
        assert stats["faults_fired"] == 1
        assert stats["shards_stalled"] == 1

    def test_drop_plan_broadcast_fires_and_rebroadcasts(self):
        sim, _ = self._run_with(
            FaultPlan.drop_plan_broadcast(0, at_event=5, backoff=60.0)
        )
        stats = sim.fault_stats()
        assert stats["faults_fired"] == 1
        assert stats["broadcasts_dropped"] == 1
        assert stats["plan_rebroadcasts"] == 1

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.kill_shard(0, at_event=10, duration=5_000.0),
            FaultPlan.stall_shard(1, at_event=10, duration=2_000.0),
            FaultPlan.drop_plan_broadcast(0, at_event=5, backoff=60.0),
        ],
        ids=["kill", "stall", "drop"],
    )
    def test_faulty_runs_replay_deterministically(self, plan):
        """Same plan, same seed => bit-identical degraded run."""
        a, a_metrics = self._run_with(plan)
        b, b_metrics = self._run_with(plan)
        assert a.policy.decisions == b.policy.decisions
        assert metrics_digest(a_metrics) == metrics_digest(b_metrics)
        assert a.fault_stats() == b.fault_stats()

    def test_kill_shard_changes_the_run(self):
        """A long outage on a shard must be visible in the outcome —
        otherwise the chaos layer is injecting placebos."""
        plain = build_sim(num_shards=2)
        plain_metrics = plain.run()
        sim, metrics = self._run_with(
            FaultPlan.kill_shard(0, at_event=10, duration=20_000.0)
        )
        assert metrics_digest(metrics) != metrics_digest(plain_metrics)


class TestInjector:
    def test_same_event_faults_fire_in_declaration_order(self):
        plan = FaultPlan(
            (
                FaultSpec("stall_shard", 10, shard=0, duration=100.0),
                FaultSpec("kill_shard", 10, shard=1, duration=100.0),
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
