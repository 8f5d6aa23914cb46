"""Scheduler-driven federated co-simulation.

Runs the simulation, then replays its completed rounds through the FedAvg
trainer so each simulated round's actual reporting set selects the clients
trained that round —
time-to-accuracy as a first-class metric of every scheduling scenario.
See ``docs/COSIM.md`` for the participant-set contract and the
determinism guarantees.
"""

from .config import CoSimConfig, smoke_cosim_config
from .loop import (
    CoSimResult,
    CoSimRound,
    CoSimulation,
    JobCoSim,
    map_devices_to_clients,
)

__all__ = [
    "CoSimConfig",
    "CoSimResult",
    "CoSimRound",
    "CoSimulation",
    "JobCoSim",
    "map_devices_to_clients",
    "smoke_cosim_config",
]
