"""Pinned hashes of the ``sweep --cosim --smoke`` cells on both engines.

The golden co-sim fixture (``tests/golden/test_golden_cosim.py``) trains six
rounds of one cell.  These four cells — ``COSIM_SMOKE_SCENARIOS`` ×
``COSIM_SMOKE_POLICIES`` at root seed 0, the matrix CI's co-sim sweep runs —
train 145 rounds between them, under two policies and a flash crowd's
arrival bursts.  Each cell runs on the single-queue and
on the fleet engine, and both must land on the pinned decision and accuracy
hashes.  A change that moves them changes what co-simulation computes.
"""

from __future__ import annotations

import pytest

from repro.cosim import CoSimulation, smoke_cosim_config
from repro.experiments.sweep import (
    COSIM_SMOKE_NUM_SEEDS,
    COSIM_SMOKE_POLICIES,
    COSIM_SMOKE_SCENARIOS,
    plan_cells,
    smoke_base_config,
)
from repro.scenarios import get_scenario

#: (scenario, policy) → (decision_hash, accuracy_hash, rounds trained).
PINNED = {
    ("non_iid_contention", "random"): (
        "264bdf78f0dafd16b0b991d6ed24a5fa",
        "caa511641034df0aa38619bbf9cb6a4e",
        30,
    ),
    ("non_iid_contention", "venn"): (
        "ac17114f520ace6b54d6f8394c464c91",
        "dc35ac20ac16925492ff4f7561ba8400",
        31,
    ),
    ("flash_crowd", "random"): (
        "c3a466c5b217dafba916ac7d900b03dd",
        "81bb02198214e73f73cee82d0b2b6c82",
        43,
    ),
    ("flash_crowd", "venn"): (
        "57cd8408c67bce6d2d347d6cc08d6ffc",
        "7b05242d5d2655b0ef5831ca93be53ad",
        41,
    ),
}

CELLS = plan_cells(
    COSIM_SMOKE_SCENARIOS, COSIM_SMOKE_NUM_SEEDS, COSIM_SMOKE_POLICIES,
    root_seed=0,
)


def test_pins_cover_the_smoke_matrix():
    assert {(c.scenario, c.policy) for c in CELLS} == set(PINNED)


@pytest.mark.parametrize("fleet", [False, True], ids=["reference", "fleet"])
@pytest.mark.parametrize(
    "cell", CELLS, ids=[f"{c.scenario}-{c.policy}" for c in CELLS]
)
def test_smoke_cell_hashes(cell, fleet):
    spec = get_scenario(cell.scenario)
    base = smoke_base_config(seed=cell.entropy).with_vectorized(fleet)
    result = CoSimulation(
        spec.build_environment(base),
        cell.policy,
        policy_kwargs=dict(spec.policy_kwargs.get(cell.policy, {})),
        config=smoke_cosim_config().with_overrides(spec.cosim),
    ).run()
    rounds = sum(len(job.rounds) for job in result.jobs.values())
    assert (result.decision_hash, result.accuracy_hash, rounds) == PINNED[
        (cell.scenario, cell.policy)
    ]
