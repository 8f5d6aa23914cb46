"""Tests for the federated-learning substrate (datasets, models, FedAvg, trainer)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.datasets import FederatedDataConfig, SyntheticFederatedDataset
from repro.fl.fedavg import fedavg_aggregate
from repro.fl.models import SoftmaxRegression
from repro.fl.trainer import (
    FederatedTrainer,
    TrainerConfig,
    accuracy_over_time,
    contention_accuracy_curves,
)


def small_dataset(num_clients=30, seed=0):
    return SyntheticFederatedDataset(
        FederatedDataConfig(
            num_clients=num_clients,
            num_features=16,
            num_classes=5,
            samples_per_client=40,
            test_samples=400,
        ),
        seed=seed,
    )


class TestDataset:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederatedDataConfig(num_clients=0)
        with pytest.raises(ValueError):
            FederatedDataConfig(dirichlet_alpha=0.0)
        with pytest.raises(ValueError):
            FederatedDataConfig(label_noise=1.0)

    def test_shapes_and_labels(self):
        ds = small_dataset()
        assert ds.num_clients == 30
        assert ds.test_features.shape == (400, 16)
        assert set(np.unique(ds.test_labels)) <= set(range(5))
        for cid in ds.client_ids():
            shard = ds.shard(cid)
            assert len(shard) == 40
            assert shard.features.shape == (40, 16)

    def test_clients_are_non_iid(self):
        """Different clients should have visibly different label distributions."""
        ds = small_dataset()
        dists = []
        for cid in ds.client_ids()[:10]:
            labels = ds.shard(cid).labels
            hist = np.bincount(labels, minlength=5) / len(labels)
            dists.append(hist)
        spread = np.std(np.array(dists), axis=0).mean()
        assert spread > 0.05

    def test_partition_clients_disjoint_and_complete(self):
        ds = small_dataset()
        parts = ds.partition_clients(4, seed=1)
        flat = [c for part in parts for c in part]
        assert sorted(flat) == ds.client_ids()
        assert len(parts) == 4

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            small_dataset().partition_clients(0)

    def test_determinism(self):
        a, b = small_dataset(seed=3), small_dataset(seed=3)
        np.testing.assert_array_equal(a.test_features, b.test_features)
        np.testing.assert_array_equal(a.shard(0).labels, b.shard(0).labels)


class TestModels:
    def test_parameter_roundtrip(self):
        model = SoftmaxRegression(num_features=8, num_classes=3)
        params = model.get_parameters()
        model.set_parameters(params * 0 + 0.5)
        np.testing.assert_allclose(model.get_parameters(), 0.5)

    def test_set_parameters_validates_shape(self):
        model = SoftmaxRegression(num_features=8, num_classes=3)
        with pytest.raises(ValueError):
            model.set_parameters(np.zeros(3))

    def test_training_improves_accuracy(self):
        rng = np.random.default_rng(0)
        ds = small_dataset()
        X = np.concatenate([ds.shard(c).features for c in ds.client_ids()])
        y = np.concatenate([ds.shard(c).labels for c in ds.client_ids()])
        model = SoftmaxRegression(num_features=16, num_classes=5)
        before = model.accuracy(ds.test_features, ds.test_labels)
        model.train_steps(X, y, lr=0.2, epochs=5, batch_size=32, rng=rng)
        after = model.accuracy(ds.test_features, ds.test_labels)
        assert after > before
        assert after > 0.5

    def test_clone_is_independent(self):
        model = SoftmaxRegression(num_features=4, num_classes=2)
        clone = model.clone()
        clone.set_parameters(np.ones_like(clone.get_parameters()))
        assert not np.allclose(model.get_parameters(), clone.get_parameters())

    def test_softmax_loss_decreases(self):
        rng = np.random.default_rng(1)
        ds = small_dataset()
        X, y = ds.test_features, ds.test_labels
        model = SoftmaxRegression(num_features=16, num_classes=5)
        before = model.loss(X, y)
        model.train_steps(X, y, lr=0.2, epochs=3, rng=rng)
        assert model.loss(X, y) < before

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SoftmaxRegression(num_features=0, num_classes=2)
        with pytest.raises(ValueError):
            SoftmaxRegression(num_features=4, num_classes=1)


class TestFedAvg:
    def test_uniform_average(self):
        updates = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        np.testing.assert_allclose(fedavg_aggregate(updates), [2.0, 3.0])

    def test_weighted_average(self):
        updates = [np.array([0.0]), np.array([10.0])]
        result = fedavg_aggregate(updates, client_weights=[1.0, 3.0])
        np.testing.assert_allclose(result, [7.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([])
        with pytest.raises(ValueError):
            fedavg_aggregate([np.zeros(2)], client_weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            fedavg_aggregate([np.zeros(2), np.zeros(2)], client_weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            fedavg_aggregate([np.zeros(2), np.zeros(2)], client_weights=[-1.0, 2.0])

    @given(
        n=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_aggregate_within_convex_hull(self, n, dim, seed):
        """Property: the FedAvg result lies inside the coordinate-wise range
        of the client updates (it is a convex combination)."""
        rng = np.random.default_rng(seed)
        updates = [rng.normal(size=dim) for _ in range(n)]
        weights = rng.uniform(0.1, 2.0, size=n)
        result = fedavg_aggregate(updates, weights)
        stacked = np.stack(updates)
        assert (result >= stacked.min(axis=0) - 1e-9).all()
        assert (result <= stacked.max(axis=0) + 1e-9).all()


class TestTrainer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(clients_per_round=0)
        with pytest.raises(ValueError):
            TrainerConfig(report_fraction=0.0)

    def test_training_history_improves(self):
        ds = small_dataset()
        trainer = FederatedTrainer(
            ds, TrainerConfig(clients_per_round=10, learning_rate=0.2), seed=0
        )
        history = trainer.train(8)
        assert history.rounds == 8
        assert history.final_accuracy > history.accuracies[0]
        assert history.final_accuracy > 0.4
        assert all(0 < n <= 10 for n in history.participant_counts)

    def test_train_requires_positive_rounds(self):
        trainer = FederatedTrainer(small_dataset(), seed=0)
        with pytest.raises(ValueError):
            trainer.train(0)

    def test_empty_pool_rejected(self):
        trainer = FederatedTrainer(small_dataset(), seed=0)
        with pytest.raises(ValueError):
            trainer.run_round([])

    def test_contention_curves_monotone_in_pool_size(self):
        """More concurrent jobs → smaller pools → final accuracy not better."""
        ds = small_dataset(num_clients=60)
        curves = contention_accuracy_curves(
            ds, job_counts=(1, 6), num_rounds=6,
            config=TrainerConfig(clients_per_round=10), seed=0,
        )
        assert set(curves) == {1, 6}
        assert len(curves[1]) == 6
        assert curves[1][-1] >= curves[6][-1] - 0.05

    def test_accuracy_over_time_step_interpolation(self):
        times = [10.0, 20.0, 30.0]
        accs = [0.3, 0.5, 0.7]
        grid = [5.0, 10.0, 25.0, 100.0]
        out = accuracy_over_time(times, accs, grid)
        assert out == [0.0, 0.3, 0.5, 0.7]

    def test_accuracy_over_time_validates_lengths(self):
        with pytest.raises(ValueError):
            accuracy_over_time([1.0], [0.5, 0.6], [1.0])
