"""Unit tests for the pending-request pool and the day index."""

from __future__ import annotations

from repro.sim.dispatch import PendingRequestPool


class TestPendingRequestPool:
    def test_add_remove_roundtrip(self):
        pool = PendingRequestPool()
        assert not pool
        pool.add(1, "general")
        pool.add(2, "high_performance")
        assert pool
        assert pool.pending_requirements() == {"general", "high_performance"}
        pool.remove(2)
        assert pool.pending_requirements() == {"general"}
        pool.remove(1)
        assert not pool and pool.pending_requirements() == set()

    def test_reopen_replaces_previous_request(self):
        pool = PendingRequestPool()
        pool.add(1, "general")
        version = pool.names_version
        pool.add(1, "general")  # retry after abort
        assert pool.names_version == version
        pool.remove(1)
        assert not pool and pool.pending_requirements() == set()

    def test_requirement_multiset(self):
        pool = PendingRequestPool()
        pool.add(1, "general")
        pool.add(2, "general")
        pool.remove(1)
        assert pool.pending_requirements() == {"general"}
        pool.remove(2)
        assert pool.pending_requirements() == set()

    def test_remove_unknown_job_is_noop(self):
        pool = PendingRequestPool()
        pool.add(1, "general")
        pool.remove(99)
        assert pool.pending_requirements() == {"general"}

    def test_names_version_tracks_name_set_changes_only(self):
        pool = PendingRequestPool()
        v0 = pool.names_version
        pool.add(1, "general")
        assert pool.names_version == v0 + 1  # new name appeared
        pool.add(2, "general")
        assert pool.names_version == v0 + 1  # multiset grew, set unchanged
        pool.add(2, "general")  # same-job re-open: no-op
        assert pool.names_version == v0 + 1
        pool.remove(1)
        assert pool.names_version == v0 + 1  # still one 'general'
        pool.remove(2)
        assert pool.names_version == v0 + 2  # name disappeared


class TestDayBoundaryParking:
    """Day accounting at exact day-boundary timestamps.

    Every daily-limit check in both engines goes through
    :func:`repro.sim.device.day_index` (or the ``np.floor_divide`` it
    matches), so a device whose budget is spent is released at the same
    timestamp everywhere; ``tests/sim/test_midnight_budget.py`` holds the
    two engines' dispatch sweeps to it.
    """

    #: Largest float64 below 172800.0 (= 2 days): still day 1.
    JUST_BELOW_DAY_2 = 172799.99999999997

    def test_day_index_boundary_values(self):
        from repro.sim.device import SECONDS_PER_DAY, day_index
        import math

        import numpy as np

        # Exact multiples open the next day; the largest float below the
        # boundary still belongs to the previous day — for every day-index
        # formulation in the engine (scalar day_index and the vectorized
        # kernels' np.floor_divide), pinned across adversarial boundaries.
        for k in (1, 2, 7, 365, 10_000):
            boundary = k * SECONDS_PER_DAY
            below = math.nextafter(boundary, 0.0)
            assert day_index(boundary) == k
            assert day_index(below) == k - 1
            assert int(np.floor_divide(boundary, SECONDS_PER_DAY)) == k
            assert int(np.floor_divide(below, SECONDS_PER_DAY)) == k - 1
        assert day_index(self.JUST_BELOW_DAY_2) == 1
