"""Numpy federated-learning substrate (FEMNIST / FedAvg stand-in)."""

from .datasets import ClientShard, FederatedDataConfig, SyntheticFederatedDataset
from .fedavg import fedavg_aggregate
from .models import SoftmaxRegression
from .trainer import (
    FederatedTrainer,
    TrainerConfig,
    TrainingHistory,
    accuracy_over_time,
    contention_accuracy_curves,
)

__all__ = [
    "ClientShard",
    "FederatedDataConfig",
    "FederatedTrainer",
    "SoftmaxRegression",
    "SyntheticFederatedDataset",
    "TrainerConfig",
    "TrainingHistory",
    "accuracy_over_time",
    "contention_accuracy_curves",
    "fedavg_aggregate",
]
