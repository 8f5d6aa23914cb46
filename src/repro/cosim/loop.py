"""Scheduler-driven federated co-simulation.

:class:`CoSimulation` runs the simulation first and trains afterwards.
The engine freezes each completed round's reporting set (the device ids
that reported before the round closed, per
:class:`~repro.sim.job.RoundRecord`) and completion time into
:class:`~repro.sim.metrics.JobMetrics`.  After the run, every completed
round is replayed through its job's own FedAvg trainer: the reporting set's
devices select the client partitions trained that round, and the resulting
test accuracy is stamped with the round's simulated completion time.
Stragglers, failures, daily-budget parking and policy bias therefore flow
directly into model convergence.  Accuracy never feeds back into a
scheduling decision, so nothing is lost by training after the run instead
of inside the event loop.

Determinism contract
--------------------

For a fixed experiment config (one root seed) and policy:

* the reporting sets and completion times are bit-identical on both
  engines;
* rounds are trained, and fed to both hashes, in canonical order: sorted
  by ``(completion_time, job_id, round_index)``.  Within a job that is
  round order, so each job's trainer sees its rounds in sequence;
* each round trains the sorted, deduplicated client set derived from the
  reporting set, with per-client randomness keyed by ``(cosim seed,
  client_id, round_index)`` (:meth:`~repro.fl.trainer.FederatedTrainer.
  client_rng`), independent of iteration order and of everything outside
  the round;
* the dataset and all per-job trainer seeds derive from the experiment's
  dedicated ``cosim`` stream.

Together: same seed ⇒ byte-identical accuracy curves, decision hashes and
time-to-accuracy numbers on either engine and for any sweep worker
count.  The golden fixture in ``tests/golden``, the pinned smoke cells in
``tests/cosim/test_cosim_smoke_pins.py`` and the CI gates pin this.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..experiments.endtoend import run_policy
from ..experiments.environment import Environment
from ..fl.datasets import SyntheticFederatedDataset
from ..fl.trainer import FederatedTrainer, TrainerConfig
from ..sim.metrics import SimulationMetrics
from .config import CoSimConfig


def _child_seed(entropy: int, *spawn_key: int) -> int:
    """128-bit child seed of ``entropy`` keyed by ``spawn_key`` (the same
    derivation discipline as ``ExperimentConfig.seed_for``)."""
    state = np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(spawn_key)
    ).generate_state(2, np.uint64)
    return (int(state[0]) << 64) | int(state[1])


def map_devices_to_clients(
    participants: Sequence[int], num_clients: int
) -> List[int]:
    """Deterministic device-id → client-id mapping (sorted, deduplicated).

    Devices map onto the shared client population by ``device_id %
    num_clients``: stable across runs, engines and policies, so which
    *clients* train is a pure function of which *devices* reported.
    Distinct devices may collapse onto one client (a device pool larger
    than the client population), which mirrors what losing reporting-set
    diversity does to training: fewer distinct shards per round.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    return sorted({int(d) % num_clients for d in participants})


@dataclass
class CoSimRound:
    """One completed, co-trained round of one job."""

    round_index: int
    completion_time: float
    #: Devices that reported back (size of the reporting set).
    num_participants: int
    #: Distinct clients trained after the device→client mapping.
    num_clients: int
    #: Test accuracy of the job's model after this round.
    accuracy: float


@dataclass
class JobCoSim:
    """Accuracy trajectory of one co-simulated job."""

    job_id: int
    rounds: List[CoSimRound] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.rounds[-1].accuracy if self.rounds else 0.0

    @property
    def accuracies(self) -> List[float]:
        return [r.accuracy for r in self.rounds]

    @property
    def completion_times(self) -> List[float]:
        return [r.completion_time for r in self.rounds]

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Simulated time at which the job first reached ``target`` test
        accuracy, or ``None`` if it never did."""
        for r in self.rounds:
            if r.accuracy >= target:
                return r.completion_time
        return None


@dataclass
class CoSimResult:
    """Outcome of one co-simulated (environment, policy) run."""

    policy: str
    #: Scheduling metrics of the underlying simulation run.
    sim: SimulationMetrics
    #: Per-job accuracy trajectories (only jobs that completed ≥1 round).
    jobs: Dict[int, JobCoSim]
    #: Accuracy targets of :meth:`time_to_accuracy` / :meth:`summary`.
    targets: Tuple[float, ...]
    #: Total jobs in the workload (attainment denominators include jobs
    #: that never completed a round).
    total_jobs: int
    #: blake2b over the ordered (job, round, time, reporting set) stream —
    #: the scheduling-decision half of the determinism contract.
    decision_hash: str
    #: blake2b over the ordered (job, round, accuracy) stream — the
    #: training half.
    accuracy_hash: str

    def time_to_accuracy(self, target: float) -> Dict[int, Optional[float]]:
        """Per-job time to first reach ``target`` (None = never)."""
        return {
            job_id: job.time_to_accuracy(target)
            for job_id, job in sorted(self.jobs.items())
        }

    def summary(self) -> Dict[float, Dict[str, float]]:
        """Per-target attainment and mean time-to-accuracy.

        ``attainment`` counts over *all* workload jobs (a job that never
        completed a round attains nothing); ``mean_time`` averages over the
        attaining jobs only and is 0.0 when none attained.
        """
        out: Dict[float, Dict[str, float]] = {}
        for target in self.targets:
            times = [
                t for t in self.time_to_accuracy(target).values() if t is not None
            ]
            out[target] = {
                "attained_jobs": float(len(times)),
                "total_jobs": float(self.total_jobs),
                "attainment": (
                    len(times) / self.total_jobs if self.total_jobs else 0.0
                ),
                "mean_time": float(np.mean(times)) if times else 0.0,
            }
        return out


class CoSimulation:
    """Couple one environment + policy run to federated training of its
    completed rounds."""

    def __init__(
        self,
        env: Environment,
        policy_name: str,
        policy_kwargs: Optional[dict] = None,
        config: Optional[CoSimConfig] = None,
    ) -> None:
        self.env = env
        self.policy_name = policy_name
        self.policy_kwargs = dict(policy_kwargs or {})
        self.config = config or CoSimConfig()
        #: Root of the run's FL randomness: the experiment's dedicated
        #: ``cosim`` stream, so every policy over this environment shares
        #: the dataset and the per-job trainer streams.
        self._entropy = env.config.seed_for("cosim")
        self.dataset = SyntheticFederatedDataset(
            self.config.dataset, seed=_child_seed(self._entropy, 0)
        )
        self._trainers: Dict[int, FederatedTrainer] = {}
        self._jobs: Dict[int, JobCoSim] = {}
        #: Hash feeds, updated in canonical round order (module docstring).
        self._decision_feed = hashlib.blake2b(digest_size=16)
        self._accuracy_feed = hashlib.blake2b(digest_size=16)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _trainer_for(self, job_id: int) -> FederatedTrainer:
        trainer = self._trainers.get(job_id)
        if trainer is None:
            trainer = FederatedTrainer(
                self.dataset,
                config=TrainerConfig(
                    clients_per_round=max(1, self.dataset.num_clients),
                    learning_rate=self.config.learning_rate,
                    local_epochs=self.config.local_epochs,
                    batch_size=self.config.batch_size,
                ),
                seed=_child_seed(self._entropy, 1, job_id),
            )
            self._trainers[job_id] = trainer
        return trainer

    def _on_round(
        self,
        job_id: int,
        round_index: int,
        completion_time: float,
        participants: Sequence[int],
    ) -> None:
        """Train one completed round's reporting set."""
        clients = map_devices_to_clients(participants, self.dataset.num_clients)
        self._decision_feed.update(
            json.dumps(
                [job_id, round_index, repr(completion_time), list(participants)],
                separators=(",", ":"),
            ).encode()
        )
        if not clients:  # pragma: no cover - min_reports >= 1 guards this
            return
        trainer = self._trainer_for(job_id)
        accuracy, _ = trainer.run_external_round(round_index, clients)
        self._accuracy_feed.update(
            json.dumps(
                [job_id, round_index, repr(accuracy)], separators=(",", ":")
            ).encode()
        )
        job = self._jobs.setdefault(job_id, JobCoSim(job_id=job_id))
        job.rounds.append(
            CoSimRound(
                round_index=round_index,
                completion_time=completion_time,
                num_participants=len(participants),
                num_clients=len(clients),
                accuracy=accuracy,
            )
        )

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self) -> CoSimResult:
        """Run the simulation, then train its completed rounds."""
        metrics = run_policy(self.env, self.policy_name, self.policy_kwargs)
        rounds = sorted(
            (time, job_id, round_index, participants)
            for job_id, jm in metrics.jobs.items()
            for round_index, (time, participants) in enumerate(
                zip(jm.round_completion_times, jm.round_participants)
            )
        )
        for time, job_id, round_index, participants in rounds:
            self._on_round(job_id, round_index, time, participants)
        return CoSimResult(
            policy=metrics.policy,
            sim=metrics,
            jobs=dict(sorted(self._jobs.items())),
            targets=tuple(self.config.target_accuracies),
            total_jobs=len(metrics.jobs),
            decision_hash=self._decision_feed.hexdigest(),
            accuracy_hash=self._accuracy_feed.hexdigest(),
        )


__all__ = [
    "CoSimResult",
    "CoSimRound",
    "CoSimulation",
    "JobCoSim",
    "map_devices_to_clients",
]
