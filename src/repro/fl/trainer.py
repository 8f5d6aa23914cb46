"""Federated training loop used by the accuracy experiments (Figures 4 and 9).

:class:`FederatedTrainer` runs synchronous FedAvg over a
:class:`~repro.fl.datasets.SyntheticFederatedDataset`.  Two usage patterns
match the paper's two accuracy experiments:

* **Contention study (Figure 4)** — the client population is evenly
  partitioned among ``k`` concurrent jobs; each job trains only on its
  partition.  As ``k`` grows, each job sees fewer/less-diverse clients per
  round and its round-to-accuracy curve degrades.
  :func:`contention_accuracy_curves` runs this sweep.

* **Policy accuracy-vs-time (Figure 9)** — the *timing* of each round comes
  from a simulator run under a given scheduling policy, while the
  round-to-accuracy curve comes from the trainer; combining the two gives
  test accuracy as a function of wall-clock time.
  :func:`accuracy_over_time` performs the combination.

Externally driven rounds (co-simulation)
----------------------------------------

:meth:`FederatedTrainer.run_external_round` trains a round over a
participant set chosen by someone else — in practice the simulation
engine's per-round reporting set (:mod:`repro.cosim`), so stragglers,
deadline misses and scheduling-policy bias flow straight into model
convergence instead of being stitched on after the fact.

Externally driven rounds draw their local-SGD randomness from per-client
streams keyed by ``(trainer seed, client_id, round_index)`` — the same
keying discipline as the engine's per-device latency streams — so a
client's draws depend only on the trainer seed and which round it trains
in, never on which other clients participate, their iteration order, the
engine or the sweep's worker count.  Same seed and same
participant sets ⇒ byte-identical parameter trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .datasets import SyntheticFederatedDataset
from .fedavg import fedavg_aggregate
from .models import SoftmaxRegression


@dataclass
class TrainerConfig:
    """Hyper-parameters of the synchronous FedAvg loop."""

    clients_per_round: int = 100
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.1
    #: Fraction of selected clients that actually report back (80 % in the
    #: paper's synchronous rounds).
    report_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.clients_per_round <= 0:
            raise ValueError("clients_per_round must be positive")
        if self.local_epochs <= 0 or self.batch_size <= 0:
            raise ValueError("local_epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 < self.report_fraction <= 1.0):
            raise ValueError("report_fraction must be in (0, 1]")


@dataclass
class TrainingHistory:
    """Round-indexed accuracy trajectory of one federated job."""

    accuracies: List[float] = field(default_factory=list)
    participant_counts: List[int] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else 0.0

    @property
    def rounds(self) -> int:
        return len(self.accuracies)


class FederatedTrainer:
    """Synchronous FedAvg over a fixed client pool."""

    def __init__(
        self,
        dataset: SyntheticFederatedDataset,
        config: Optional[TrainerConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or TrainerConfig()
        self._rng = np.random.default_rng(seed)
        # Master entropy of the per-(client, round) streams used by
        # externally driven rounds.  Normalising through a SeedSequence
        # keeps the streams well-defined for seed=None too (random entropy,
        # but still internally order-independent).
        self._entropy = np.random.SeedSequence(seed).entropy
        self.model = SoftmaxRegression(dataset.num_features, dataset.num_classes)

    def _select_clients(self, client_pool: Sequence[int]) -> List[int]:
        k = min(self.config.clients_per_round, len(client_pool))
        idx = self._rng.choice(len(client_pool), size=k, replace=False)
        return [client_pool[int(i)] for i in idx]

    def run_round(self, client_pool: Sequence[int]) -> Tuple[float, int]:
        """Run one FedAvg round; returns (test accuracy, participants)."""
        if not client_pool:
            raise ValueError("client pool must not be empty")
        selected = self._select_clients(client_pool)
        # Only a fraction of the selected clients report back.
        n_report = max(1, int(round(self.config.report_fraction * len(selected))))
        reporting = selected[:n_report]

        global_params = self.model.get_parameters()
        updates: List[np.ndarray] = []
        weights: List[float] = []
        for cid in reporting:
            shard = self.dataset.shard(cid)
            local = self.model.clone()
            local.set_parameters(global_params)
            local.train_steps(
                shard.features,
                shard.labels,
                lr=self.config.learning_rate,
                epochs=self.config.local_epochs,
                batch_size=self.config.batch_size,
                rng=self._rng,
            )
            updates.append(local.get_parameters())
            weights.append(float(len(shard)))
        new_params = fedavg_aggregate(updates, weights)
        self.model.set_parameters(new_params)
        accuracy = self.model.accuracy(
            self.dataset.test_features, self.dataset.test_labels
        )
        return accuracy, len(reporting)

    # ------------------------------------------------------------------ #
    # Externally driven rounds (co-simulation)
    # ------------------------------------------------------------------ #
    def client_rng(self, client_id: int, round_index: int) -> np.random.Generator:
        """The dedicated generator of ``client_id``'s round-``round_index``
        local training — a pure function of ``(trainer seed, client_id,
        round_index)``, independent of every other client's draws."""
        if client_id < 0 or round_index < 0:
            raise ValueError("client_id and round_index must be non-negative")
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self._entropy,
                spawn_key=(int(client_id), int(round_index)),
            )
        )

    def run_external_round(
        self, round_index: int, participants: Sequence[int]
    ) -> Tuple[float, int]:
        """Run one FedAvg round over an externally chosen participant set.

        ``participants`` is the round's *reporting set* — e.g. the device-
        derived client ids the simulator saw report before the deadline —
        so no further selection or report-fraction subsetting is applied:
        whoever the scheduler delivered is exactly who trains.  Duplicates
        collapse and iteration runs in ascending client id; combined with
        :meth:`client_rng` this makes the round's result a pure function of
        ``(trainer seed, round_index, set(participants))``.

        Returns ``(test accuracy after the round, number of clients trained)``.
        """
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        reporting = sorted({int(c) for c in participants})
        if not reporting:
            raise ValueError("participant set must not be empty")
        unknown = [c for c in reporting if c not in self.dataset.clients]
        if unknown:
            raise ValueError(f"unknown client ids: {unknown[:5]}")
        global_params = self.model.get_parameters()
        updates: List[np.ndarray] = []
        weights: List[float] = []
        for cid in reporting:
            shard = self.dataset.shard(cid)
            local = self.model.clone()
            local.set_parameters(global_params)
            local.train_steps(
                shard.features,
                shard.labels,
                lr=self.config.learning_rate,
                epochs=self.config.local_epochs,
                batch_size=self.config.batch_size,
                rng=self.client_rng(cid, round_index),
            )
            updates.append(local.get_parameters())
            weights.append(float(len(shard)))
        self.model.set_parameters(fedavg_aggregate(updates, weights))
        accuracy = self.model.accuracy(
            self.dataset.test_features, self.dataset.test_labels
        )
        return accuracy, len(reporting)

    def train(
        self, num_rounds: int, client_pool: Optional[Sequence[int]] = None
    ) -> TrainingHistory:
        """Run ``num_rounds`` rounds over ``client_pool`` (default: all clients)."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        pool = list(client_pool) if client_pool is not None else self.dataset.client_ids()
        history = TrainingHistory()
        for _ in range(num_rounds):
            acc, n = self.run_round(pool)
            history.accuracies.append(acc)
            history.participant_counts.append(n)
        return history


def contention_accuracy_curves(
    dataset: SyntheticFederatedDataset,
    job_counts: Sequence[int],
    num_rounds: int,
    config: Optional[TrainerConfig] = None,
    seed: Optional[int] = None,
) -> Dict[int, List[float]]:
    """Figure-4 experiment: average accuracy-per-round vs number of jobs.

    For each ``k`` in ``job_counts`` the client population is evenly
    partitioned into ``k`` pools, one job is trained per pool, and the mean
    accuracy trajectory across jobs is returned.  To keep the sweep cheap the
    mean is computed over ``min(k, 4)`` representative jobs.
    """
    curves: Dict[int, List[float]] = {}
    for k in job_counts:
        partitions = dataset.partition_clients(k, seed=seed)
        sample_jobs = partitions[: min(k, 4)]
        trajectories = []
        for i, pool in enumerate(sample_jobs):
            trainer = FederatedTrainer(
                dataset, config=config, seed=(seed or 0) + 1000 * k + i
            )
            history = trainer.train(num_rounds, client_pool=pool)
            trajectories.append(history.accuracies)
        curves[k] = list(np.mean(np.array(trajectories), axis=0))
    return curves


def accuracy_over_time(
    round_completion_times: Sequence[float],
    accuracy_per_round: Sequence[float],
    time_grid: Sequence[float],
) -> List[float]:
    """Combine simulator timing with a round-to-accuracy curve (Figure 9).

    ``round_completion_times[i]`` is the wall-clock time at which round ``i``
    completed under some policy; ``accuracy_per_round[i]`` the model accuracy
    after that round.  Returns the accuracy reached by each time in
    ``time_grid`` (0 accuracy before the first round completes is represented
    by the first round's accuracy held back, i.e. step interpolation).
    """
    if len(round_completion_times) != len(accuracy_per_round):
        raise ValueError("timing and accuracy sequences must align")
    times = np.asarray(round_completion_times, dtype=float)
    accs = np.asarray(accuracy_per_round, dtype=float)
    order = np.argsort(times)
    times, accs = times[order], accs[order]
    out: List[float] = []
    for t in time_grid:
        completed = np.searchsorted(times, t, side="right")
        out.append(float(accs[completed - 1]) if completed > 0 else 0.0)
    return out


__all__ = [
    "FederatedTrainer",
    "TrainerConfig",
    "TrainingHistory",
    "accuracy_over_time",
    "contention_accuracy_curves",
]
