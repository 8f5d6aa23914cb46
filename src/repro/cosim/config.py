"""Configuration of the scheduler-driven federated co-simulation."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Tuple

from ..fl.datasets import FederatedDataConfig


@dataclass
class CoSimConfig:
    """Knobs of one co-simulated federated training run.

    The simulation side (devices, availability, workload, policy) comes
    from the usual :class:`~repro.experiments.config.ExperimentConfig`;
    this config only describes the FL side layered on top of it and the
    accuracy targets the time-to-accuracy metric is read at.
    """

    #: Synthetic non-IID dataset every co-simulated job trains on.  One
    #: dataset is shared by all jobs of a run (they model concurrent jobs
    #: drawing from one device population), seeded from the experiment's
    #: ``cosim`` stream.
    dataset: FederatedDataConfig = field(default_factory=FederatedDataConfig)
    #: Local-SGD hyper-parameters applied per participating client.
    learning_rate: float = 0.1
    local_epochs: int = 1
    batch_size: int = 32
    #: Test accuracies the time-to-accuracy metric is evaluated at.
    target_accuracies: Tuple[float, ...] = (0.5, 0.6, 0.7)

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate):
            raise ValueError(
                f"learning_rate must be finite (got {self.learning_rate})"
            )
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("local_epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(
                    f"{name} must be an int (got {type(value).__name__} "
                    f"{value!r})"
                )
        if self.local_epochs <= 0 or self.batch_size <= 0:
            raise ValueError("local_epochs and batch_size must be positive")
        targets = tuple(float(t) for t in self.target_accuracies)
        if not targets:
            raise ValueError("need at least one target accuracy")
        if any(not (0.0 < t <= 1.0) for t in targets):
            raise ValueError("target accuracies must be in (0, 1]")
        if list(targets) != sorted(targets):
            raise ValueError("target accuracies must be ascending")
        self.target_accuracies = targets

    def with_overrides(self, overrides: Mapping[str, object]) -> "CoSimConfig":
        """Copy with scenario-level overrides folded in.

        ``overrides`` holds keyword arguments for ``dataclasses.replace``
        on this config; the special key ``"dataset"`` takes a nested
        mapping applied to :class:`FederatedDataConfig` the same way —
        this is how a :class:`~repro.scenarios.spec.ScenarioSpec` tunes
        e.g. the Dirichlet non-IID-ness without restating the rest.
        """
        if not overrides:
            return replace(self)
        top = dict(overrides)
        dataset_overrides = top.pop("dataset", None)
        known = {f.name for f in fields(self)}
        unknown = sorted(set(top) - known)
        if unknown:
            raise ValueError(f"unknown CoSimConfig overrides: {unknown}")
        dataset = self.dataset
        if dataset_overrides:
            dataset = replace(dataset, **dict(dataset_overrides))
        return replace(self, dataset=dataset, **top)


def smoke_cosim_config() -> CoSimConfig:
    """The micro FL config behind ``sweep --cosim --smoke`` and CI: a small
    non-IID dataset that converges within the quick preset's handful of
    rounds while keeping every cell in fractions of a second."""
    return CoSimConfig(
        dataset=FederatedDataConfig(
            num_clients=60,
            num_classes=5,
            num_features=16,
            samples_per_client=32,
            test_samples=400,
        ),
        learning_rate=0.2,
        target_accuracies=(0.4, 0.55, 0.7),
    )


__all__ = ["CoSimConfig", "smoke_cosim_config"]
