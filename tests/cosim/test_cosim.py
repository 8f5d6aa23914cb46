"""Tests for the scheduler-driven federated co-simulation subsystem.

Covers the four layers the tentpole touches:

* per-round reporting sets and completion times in the run's metrics
  (sim layer),
* externally driven trainer rounds with per-(client, round) streams (fl
  layer),
* the :class:`~repro.cosim.CoSimulation` loop, including bit-identity
  across the two engines (the determinism contract),
* the sweep's ``--cosim`` rows and their time-to-accuracy aggregation.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.aggregate import (
    aggregate_cosim_rows,
    aggregate_rows,
    format_cosim_aggregates,
)
from repro.cosim import (
    CoSimConfig,
    CoSimRound,
    CoSimulation,
    JobCoSim,
    map_devices_to_clients,
    smoke_cosim_config,
)
from repro.experiments.config import quick_config
from repro.experiments.environment import build_environment
from repro.experiments.sweep import plan_cells, run_cosim_cell, run_sweep
from repro.fl.datasets import FederatedDataConfig, SyntheticFederatedDataset
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.scenarios import get_scenario

DAY = 24 * 3600.0


def cosim_base(seed: int = 11, num_devices: int = 600, num_jobs: int = 8):
    """A micro experiment config whose jobs complete rounds within a day."""
    base = quick_config(seed=seed)
    return replace(base, num_devices=num_devices, num_jobs=num_jobs, horizon=DAY)


def tiny_cosim_config() -> CoSimConfig:
    return CoSimConfig(
        dataset=FederatedDataConfig(
            num_clients=40,
            num_classes=4,
            num_features=12,
            samples_per_client=24,
            test_samples=200,
        ),
        learning_rate=0.2,
        target_accuracies=(0.3, 0.5, 0.9),
    )


def tiny_dataset(seed: int = 0) -> SyntheticFederatedDataset:
    return SyntheticFederatedDataset(
        FederatedDataConfig(
            num_clients=20,
            num_classes=4,
            num_features=10,
            samples_per_client=20,
            test_samples=100,
        ),
        seed=seed,
    )


class TestDeviceClientMapping:
    def test_modulo_dedupe_and_sort(self):
        assert map_devices_to_clients([13, 3, 23, 3], 10) == [3]
        assert map_devices_to_clients([5, 14, 2], 10) == [2, 4, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            map_devices_to_clients([1], 0)


class TestCoSimConfig:
    def test_target_validation(self):
        with pytest.raises(ValueError):
            CoSimConfig(target_accuracies=())
        with pytest.raises(ValueError):
            CoSimConfig(target_accuracies=(0.7, 0.5))
        with pytest.raises(ValueError):
            CoSimConfig(target_accuracies=(0.0,))
        with pytest.raises(ValueError):
            CoSimConfig(learning_rate=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_learning_rate_must_be_finite(self, value):
        """``nan <= 0`` is false, so NaN and infinity used to pass."""
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            CoSimConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "2"])
    def test_local_epochs_must_be_an_int(self, value):
        with pytest.raises(TypeError, match="local_epochs must be an int"):
            CoSimConfig(local_epochs=value)

    @pytest.mark.parametrize("value", [16.5, 32.0, True, "32"])
    def test_batch_size_must_be_an_int(self, value):
        with pytest.raises(TypeError, match="batch_size must be an int"):
            CoSimConfig(batch_size=value)

    def test_int_fields_keep_their_range_message(self):
        config = CoSimConfig(local_epochs=np.int64(2), batch_size=8)
        assert config.local_epochs == 2 and config.batch_size == 8
        for kwargs in (dict(local_epochs=0), dict(batch_size=-1)):
            with pytest.raises(ValueError, match="must be positive"):
                CoSimConfig(**kwargs)

    def test_with_overrides_nested_dataset(self):
        cfg = tiny_cosim_config().with_overrides(
            {"learning_rate": 0.05, "dataset": {"dirichlet_alpha": 0.1}}
        )
        assert cfg.learning_rate == 0.05
        assert cfg.dataset.dirichlet_alpha == 0.1
        # Untouched knobs survive.
        assert cfg.dataset.num_clients == 40
        assert cfg.target_accuracies == (0.3, 0.5, 0.9)

    def test_with_overrides_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown CoSimConfig overrides"):
            tiny_cosim_config().with_overrides({"nope": 1})

    def test_with_overrides_empty_returns_copy(self):
        base = tiny_cosim_config()
        copy = base.with_overrides({})
        assert copy is not base
        assert copy.dataset == base.dataset


class TestExternalRounds:
    def test_deterministic_and_permutation_invariant(self):
        ds = tiny_dataset(seed=3)
        a = FederatedTrainer(ds, TrainerConfig(learning_rate=0.2), seed=5)
        b = FederatedTrainer(ds, TrainerConfig(learning_rate=0.2), seed=5)
        acc_a, n_a = a.run_external_round(0, [4, 1, 9, 1])
        acc_b, n_b = b.run_external_round(0, [9, 1, 4])  # permuted + deduped
        assert n_a == n_b == 3
        assert acc_a == acc_b
        np.testing.assert_array_equal(
            a.model.get_parameters(), b.model.get_parameters()
        )

    def test_round_index_keys_the_randomness(self):
        # batch_size < shard size so the mini-batch shuffle actually draws
        # from the per-(client, round) stream (full-batch SGD would be
        # RNG-free and mask the keying).
        ds = tiny_dataset(seed=3)
        cfg = TrainerConfig(learning_rate=0.2, batch_size=5, local_epochs=2)
        a = FederatedTrainer(ds, cfg, seed=5)
        b = FederatedTrainer(ds, cfg, seed=5)
        a.run_external_round(0, [1, 2, 3])
        b.run_external_round(7, [1, 2, 3])
        assert not np.allclose(
            a.model.get_parameters(), b.model.get_parameters()
        )

    def test_client_rng_is_stream_stable(self):
        trainer = FederatedTrainer(tiny_dataset(), seed=5)
        draw1 = trainer.client_rng(3, 2).random(4)
        draw2 = trainer.client_rng(3, 2).random(4)
        other = trainer.client_rng(4, 2).random(4)
        np.testing.assert_array_equal(draw1, draw2)
        assert not np.array_equal(draw1, other)

    def test_validation(self):
        trainer = FederatedTrainer(tiny_dataset(), seed=5)
        with pytest.raises(ValueError):
            trainer.run_external_round(0, [])
        with pytest.raises(ValueError):
            trainer.run_external_round(-1, [1])
        with pytest.raises(ValueError, match="unknown client"):
            trainer.run_external_round(0, [999])
        with pytest.raises(ValueError):
            trainer.client_rng(-1, 0)


class TestRoundRecords:
    """The per-round records co-simulation trains from, read from the
    run's :class:`~repro.sim.metrics.SimulationMetrics`."""

    @pytest.fixture(scope="class")
    def result(self):
        env = build_environment(cosim_base(seed=13))
        return CoSimulation(env, "random", config=tiny_cosim_config()).run()

    def test_reporting_sets_sorted_unique_and_bounded(self, result):
        jobs = result.sim.jobs.values()
        assert any(jm.round_participants for jm in jobs), (
            "no round completed in the micro environment"
        )
        for jm in jobs:
            for participants in jm.round_participants:
                assert list(participants) == sorted(set(participants))
                assert 1 <= len(participants) <= jm.demand_per_round

    def test_completed_rounds_are_a_time_ordered_prefix(self, result):
        for jm in result.sim.jobs.values():
            times = jm.round_completion_times
            assert times == sorted(times)
            # One entry per completed round, rounds 0..k-1 with no gap.
            assert len(times) == len(jm.round_participants) == (
                jm.rounds_completed
            )

    def test_cosim_trains_exactly_the_recorded_rounds(self, result):
        trained = {
            job_id: [
                (r.round_index, r.completion_time, r.num_participants)
                for r in job.rounds
            ]
            for job_id, job in result.jobs.items()
        }
        recorded = {
            job_id: [
                (i, t, len(p))
                for i, (t, p) in enumerate(
                    zip(jm.round_completion_times, jm.round_participants)
                )
            ]
            for job_id, jm in result.sim.jobs.items()
            if jm.rounds_completed
        }
        assert trained == recorded

    def test_completed_iff_every_round_completed(self, result):
        assert any(jm.completed for jm in result.sim.jobs.values())
        for jm in result.sim.jobs.values():
            assert jm.completed == (jm.rounds_completed == jm.num_rounds)


class TestCoSimulationDeterminism:
    def test_bit_identical_across_engines(self):
        one, two = (
            CoSimulation(
                build_environment(cosim_base(seed=13).with_vectorized(fleet)),
                "venn",
                config=tiny_cosim_config(),
            ).run()
            for fleet in (False, True)
        )
        assert one.decision_hash == two.decision_hash
        assert one.accuracy_hash == two.accuracy_hash
        assert list(one.jobs) == list(two.jobs)
        for job_id in one.jobs:
            assert one.jobs[job_id].accuracies == two.jobs[job_id].accuracies
            assert (
                one.jobs[job_id].completion_times
                == two.jobs[job_id].completion_times
            )

    def test_same_seed_same_run(self):
        runs = [
            CoSimulation(
                build_environment(cosim_base(seed=13)),
                "venn",
                config=tiny_cosim_config(),
            ).run()
            for _ in range(2)
        ]
        assert runs[0].decision_hash == runs[1].decision_hash
        assert runs[0].accuracy_hash == runs[1].accuracy_hash

    def test_policies_share_dataset_but_diverge_on_decisions(self):
        env = build_environment(cosim_base(seed=13))
        venn = CoSimulation(env, "venn", config=tiny_cosim_config()).run()
        env2 = build_environment(cosim_base(seed=13))
        random_ = CoSimulation(env2, "random", config=tiny_cosim_config()).run()
        assert venn.sim.policy != random_.sim.policy
        # Different participant streams -> different decision hashes.
        assert venn.decision_hash != random_.decision_hash

    def test_run_reports_every_job_and_valid_accuracies(self):
        env = build_environment(cosim_base(seed=13))
        result = CoSimulation(env, "venn", config=tiny_cosim_config()).run()
        assert result.total_jobs == env.num_jobs
        assert result.jobs, "expected at least one trained job"
        for job in result.jobs.values():
            assert len(job.accuracies) == len(job.completion_times)
            for acc in job.accuracies:
                assert 0.0 <= acc <= 1.0


class TestTimeToAccuracy:
    def _job(self):
        return JobCoSim(
            job_id=1,
            rounds=[
                CoSimRound(0, 100.0, 5, 5, 0.2),
                CoSimRound(1, 200.0, 5, 5, 0.6),
                CoSimRound(2, 300.0, 5, 5, 0.5),
            ],
        )

    def test_first_crossing_wins(self):
        job = self._job()
        assert job.time_to_accuracy(0.1) == 100.0
        assert job.time_to_accuracy(0.55) == 200.0
        # A later dip does not revoke attainment.
        assert job.time_to_accuracy(0.6) == 200.0
        assert job.time_to_accuracy(0.9) is None
        assert job.final_accuracy == 0.5

    def test_empty_job(self):
        job = JobCoSim(job_id=2)
        assert job.time_to_accuracy(0.1) is None
        assert job.final_accuracy == 0.0


class TestCoSimSweep:
    @pytest.fixture(scope="class")
    def tiny_cells(self):
        return plan_cells(
            ("non_iid_contention", "flash_crowd"), 1, ("random",), root_seed=7
        )

    def test_row_schema_and_json_roundtrip(self, tiny_cells):
        row = run_cosim_cell(tiny_cells[0], smoke=True)
        expected = {
            "scenario",
            "policy",
            "job_jcts",
            "targets",
            "time_to_target",
            "final_accuracies",
            "total_jobs",
            "rounds_trained",
            "decision_hash",
            "accuracy_hash",
        }
        assert expected <= set(row)
        assert row["scenario"] == "non_iid_contention"
        assert row["total_jobs"] == row["num_jobs"]
        assert json.loads(json.dumps(row)) == row
        # Every declared target has a per-job time map.
        for target in row["targets"]:
            assert str(target) in row["time_to_target"]

    def test_rows_bit_identical_across_worker_counts(
        self, tiny_cells, tmp_path
    ):
        out1 = tmp_path / "w1.jsonl"
        out2 = tmp_path / "w2.jsonl"
        rows1 = run_sweep(
            tiny_cells, smoke=True, workers=1, out_path=str(out1), cosim=True
        )
        rows2 = run_sweep(
            tiny_cells, smoke=True, workers=2, out_path=str(out2), cosim=True
        )
        assert rows1 == rows2
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_aggregate_in_both_pipelines(self, tiny_cells):
        rows = [run_cosim_cell(c, smoke=True) for c in tiny_cells]
        # Plain JCT aggregation still applies (co-sim rows are a superset).
        plain = aggregate_rows(rows)
        assert set(plain) == {
            ("non_iid_contention", "random"),
            ("flash_crowd", "random"),
        }
        cosim = aggregate_cosim_rows(rows)
        assert set(cosim) == set(plain)
        for agg in cosim.values():
            assert agg.num_cells == 1
            assert agg.total_jobs > 0
            targets = [t.target for t in agg.targets]
            assert targets == sorted(targets)
            for t in agg.targets:
                assert 0 <= t.attained_jobs <= t.total_jobs
                assert 0.0 <= t.attainment <= 1.0
                if t.attained_jobs == 0:
                    assert t.mean_time == 0.0
                else:
                    assert t.time_ci_low <= t.mean_time <= t.time_ci_high
        text = format_cosim_aggregates(cosim)
        assert "non_iid_contention" in text and "attained" in text

    def test_scenario_cosim_overrides_reach_the_dataset(self):
        spec = get_scenario("non_iid_contention")
        assert spec.cosim["dataset"]["dirichlet_alpha"] == 0.1
        cfg = smoke_cosim_config().with_overrides(spec.cosim)
        assert cfg.dataset.dirichlet_alpha == 0.1


class TestAggregateCosimEdges:
    def test_empty_rows(self):
        assert aggregate_cosim_rows([]) == {}
        assert "(no rows)" in format_cosim_aggregates({})

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="missing required field"):
            aggregate_cosim_rows([{"policy": "venn"}])

    def test_pools_times_across_cells(self):
        rows = [
            {
                "scenario": "s",
                "policy": "p",
                "targets": [0.5],
                "time_to_target": {"0.5": {"1": 100.0, "2": None}},
                "final_accuracies": {"1": 0.6, "2": 0.4},
                "total_jobs": 2,
            },
            {
                "scenario": "s",
                "policy": "p",
                "targets": [0.5],
                "time_to_target": {"0.5": {"1": 300.0, "2": 200.0}},
                "final_accuracies": {"1": 0.7, "2": 0.55},
                "total_jobs": 2,
            },
        ]
        aggs = aggregate_cosim_rows(rows)
        agg = aggs[("s", "p")]
        assert agg.num_cells == 2
        assert agg.total_jobs == 4
        assert agg.mean_final_accuracy == pytest.approx(
            (0.6 + 0.4 + 0.7 + 0.55) / 4
        )
        target = agg.target(0.5)
        assert target is not None
        assert target.attained_jobs == 3
        assert target.total_jobs == 4
        assert target.attainment == pytest.approx(0.75)
        assert target.mean_time == pytest.approx(200.0)
        assert agg.target(0.9) is None
