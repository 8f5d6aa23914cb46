"""A daily-spent device becomes dispatchable exactly at midnight, on both engines.

Devices stay online across midnight after serving a job on day 0, so their
one-job-per-day budget is spent.  A request opened one float below
midnight runs a dispatch sweep that must not offer them; the first sweep at
``t >= 86400.0`` must offer them in ascending id order.  That sweep is run
by a job arrival, by a deadline abort that re-opens a round, and — in the
last test — with two requirements pending, one of which fills mid-sweep,
so the rest of the walk must skip the devices only that requirement could
use.  The single-queue engine walks its idle set and the fleet engine
masks its arrays; both must make the same offers and decisions.
"""

from __future__ import annotations

import math

import pytest

from repro.core.baselines import make_policy
from repro.core.requirements import GENERAL, HIGH_PERFORMANCE
from repro.core.types import JobSpec
from repro.resilience import RecordingPolicy, metrics_digest
from repro.sim.engine import SimulationConfig, Simulator
from tests.conftest import make_device, make_job
from tests.sim.test_engine import DETERMINISTIC_LATENCY, always_on_trace

MIDNIGHT = 86_400.0
JUST_BEFORE = math.nextafter(MIDNIGHT, 0.0)


class OfferLog(RecordingPolicy):
    """Records every device offer (``assign`` call, taken or not) and every
    request opening, besides the decisions."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.offers = []
        self.opened = []

    def assign(self, device_id, now):
        out = super().assign(device_id, now)
        self.offers.append((now, device_id, None if out is None else out.job_id))
        return out

    def on_request_open(self, request, now):
        self.opened.append((now, request.job_id))
        return self._inner.on_request_open(request, now)


def run(devices, jobs, vectorized: bool):
    """One FIFO run of always-online devices with the daily limit on."""
    policy = OfferLog(make_policy("fifo", seed=7))
    sim = Simulator(
        devices=devices,
        availability=always_on_trace(len(devices), horizon=2 * MIDNIGHT),
        workload=jobs,
        policy=policy,
        config=SimulationConfig(
            horizon=MIDNIGHT + 3_600.0,
            seed=0,
            latency=DETERMINISTIC_LATENCY,
            enforce_daily_limit=True,
            vectorized_dispatch=vectorized,
        ),
    )
    metrics = sim.run()
    return sim, policy, metrics


def run_twins(devices, jobs):
    """The same cell on the single-queue and the fleet engine, which must
    make the same offers and decisions."""
    reference = run(devices, jobs, vectorized=False)
    fleet = run(devices, jobs, vectorized=True)
    assert reference[1].offers == fleet[1].offers
    assert reference[1].decisions == fleet[1].decisions
    assert metrics_digest(reference[2]) == metrics_digest(fleet[2])
    assert reference[0].events_processed == fleet[0].events_processed
    return reference, fleet


@pytest.mark.parametrize("trigger", ["arrival", "abort"])
def test_spent_device_is_offered_from_midnight_on(trigger):
    jobs = [
        make_job(1, demand=2, rounds=1, arrival=1_000.0, deadline=1_200.0),
        # Opened on day 0 with no device to serve it.  Under "abort" its
        # deadline fires at exactly midnight (85 800 + 600 is exact).
        make_job(2, demand=1, rounds=1, arrival=MIDNIGHT - 600.0,
                 deadline=600.0 if trigger == "abort" else 7_200.0),
        make_job(3, demand=1, rounds=1, arrival=JUST_BEFORE, deadline=7_200.0),
    ]
    if trigger == "arrival":
        jobs.append(make_job(4, demand=1, rounds=1, arrival=MIDNIGHT,
                             deadline=7_200.0))
    reopened = (MIDNIGHT, 4 if trigger == "arrival" else 2)
    for _sim, policy, metrics in run_twins(
        [make_device(device_id=i) for i in range(2)], jobs
    ):
        # Day 0: both devices serve job 1, and nothing offers them again.
        assert [o for o in policy.offers if o[0] < MIDNIGHT] == [
            (1_000.0, 0, 1),
            (1_000.0, 1, 1),
        ]
        # A request opened one float before midnight, so a sweep ran there.
        assert (JUST_BEFORE, 3) in policy.opened
        # The first sweep at midnight offers both, in ascending id order.
        assert reopened in policy.opened
        assert [(t, d) for t, d, _ in policy.offers if t == MIDNIGHT] == [
            (MIDNIGHT, 0),
            (MIDNIGHT, 1),
        ]
        assert metrics.total_aborts == (1 if trigger == "abort" else 0)


def test_midnight_sweep_narrows_when_a_requirement_fills():
    """Devices 0-2 are general-only, 3-5 also high-performance; all six
    are spent on day 0.  At midnight a general job (demand 1) and a
    high-performance job (demand 2) are pending: device 0 fills the
    general job, so the walk skips devices 1 and 2."""
    devices = [make_device(device_id=i, cpu=0.2, mem=0.2) for i in range(3)]
    devices += [make_device(device_id=i, cpu=0.8, mem=0.8) for i in range(3, 6)]
    jobs = [
        # Every response counts: a straggler on a closed round would get
        # its budget refunded.
        JobSpec(1, GENERAL, demand_per_round=6, num_rounds=1,
                arrival_time=1_000.0, min_report_fraction=1.0),
        make_job(2, demand=1, rounds=1, arrival=MIDNIGHT - 600.0,
                 deadline=7_200.0),
        make_job(3, requirement=HIGH_PERFORMANCE, demand=2, rounds=1,
                 arrival=MIDNIGHT, deadline=7_200.0),
    ]
    for _sim, policy, _metrics in run_twins(devices, jobs):
        assert [(t, d) for t, d, _ in policy.offers if t < MIDNIGHT] == [
            (1_000.0, d) for d in range(6)
        ]
        assert [o for o in policy.offers if o[0] == MIDNIGHT] == [
            (MIDNIGHT, 0, 2),
            (MIDNIGHT, 3, 3),
            (MIDNIGHT, 4, 3),
        ]
