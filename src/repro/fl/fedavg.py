"""FedAvg aggregation.

The server-side half of synchronous federated training: the weighted average
of client parameter updates, with each client weighted by the number of
local samples it trained on (McMahan et al.'s original rule).  A failure-
tolerant variant simply omits clients that did not report back — which is how
the paper's 80 %-report-back rounds behave.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def fedavg_aggregate(
    client_parameters: Sequence[np.ndarray],
    client_weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Weighted average of client parameter vectors.

    Parameters
    ----------
    client_parameters:
        One flat parameter vector per reporting client (all the same shape).
    client_weights:
        Optional non-negative weights (e.g. local sample counts).  Defaults
        to uniform weights.
    """
    if not client_parameters:
        raise ValueError("need at least one client update to aggregate")
    stacked = np.stack([np.asarray(p, dtype=float) for p in client_parameters])
    if stacked.ndim != 2:
        raise ValueError("client parameters must be flat vectors")
    if client_weights is None:
        weights = np.full(len(client_parameters), 1.0)
    else:
        weights = np.asarray(client_weights, dtype=float)
        if weights.shape != (len(client_parameters),):
            raise ValueError("one weight per client update is required")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    weights = weights / total
    return (weights[:, None] * stacked).sum(axis=0)


__all__ = ["fedavg_aggregate"]
