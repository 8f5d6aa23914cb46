"""Property tests for FedAvg aggregation (:mod:`repro.fl.fedavg`).

The aggregation rule is the algebraic heart of the federated substrate;
these hypothesis tests pin its invariants independently of any example:

* permutation invariance — the result does not depend on the order the
  clients report in;
* weight normalisation — only relative weights matter (scaling every
  weight by the same positive constant changes nothing);
* convexity — the aggregate lies inside the per-coordinate min/max box of
  the client updates;
* failure tolerance — the 80%-report-back rounds of the paper simply omit
  non-reporting clients, which equals giving them zero weight.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.fedavg import fedavg_aggregate


def _updates_and_weights(rng: np.random.Generator, n: int, dim: int):
    updates = [rng.normal(scale=3.0, size=dim) for _ in range(n)]
    weights = rng.uniform(0.05, 5.0, size=n)
    return updates, weights


@st.composite
def aggregation_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, dim, np.random.default_rng(seed)


class TestFedAvgProperties:
    @given(case=aggregation_cases(), perm_seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, case, perm_seed):
        n, dim, rng = case
        updates, weights = _updates_and_weights(rng, n, dim)
        base = fedavg_aggregate(updates, weights)
        order = np.random.default_rng(perm_seed).permutation(n)
        permuted = fedavg_aggregate(
            [updates[i] for i in order], [weights[i] for i in order]
        )
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-12)

    @given(case=aggregation_cases(), scale=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_weight_normalisation(self, case, scale):
        """Only relative weights matter: w and c*w aggregate identically."""
        n, dim, rng = case
        updates, weights = _updates_and_weights(rng, n, dim)
        base = fedavg_aggregate(updates, weights)
        scaled = fedavg_aggregate(updates, [scale * w for w in weights])
        np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-9)

    @given(case=aggregation_cases())
    @settings(max_examples=50, deadline=None)
    def test_convexity(self, case):
        """The aggregate is a convex combination: per-coordinate it lies
        within [min, max] of the client updates."""
        n, dim, rng = case
        updates, weights = _updates_and_weights(rng, n, dim)
        result = fedavg_aggregate(updates, weights)
        stacked = np.stack(updates)
        assert (result >= stacked.min(axis=0) - 1e-9).all()
        assert (result <= stacked.max(axis=0) + 1e-9).all()

    @given(case=aggregation_cases())
    @settings(max_examples=50, deadline=None)
    def test_uniform_weights_equal_plain_mean(self, case):
        n, dim, rng = case
        updates, _ = _updates_and_weights(rng, n, dim)
        np.testing.assert_allclose(
            fedavg_aggregate(updates),
            np.mean(np.stack(updates), axis=0),
            rtol=1e-12,
            atol=1e-12,
        )

    @given(
        case=aggregation_cases(),
        dropped=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_failure_tolerant_report_back_path(self, case, dropped):
        """Omitting non-reporting clients (what the trainer's 80%-report
        rounds do) equals keeping them with zero weight: the aggregate is
        determined by the reporting set alone."""
        n, dim, rng = case
        updates, weights = _updates_and_weights(rng, n, dim)
        stragglers = [rng.normal(scale=100.0, size=dim) for _ in range(dropped)]
        omitted = fedavg_aggregate(updates, weights)
        zero_weighted = fedavg_aggregate(
            updates + stragglers, list(weights) + [0.0] * dropped
        )
        np.testing.assert_allclose(zero_weighted, omitted, rtol=1e-9, atol=1e-9)

