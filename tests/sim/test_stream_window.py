"""The static stream's decode window changes wall time and memory, never
results (:data:`repro.sim.stream.STREAM_WINDOW`).

The fleet engine keeps its static device stream as numpy columns and
decodes ``STREAM_WINDOW`` events at a time into Python rows for the
per-event readers.  Every test here shrinks the window to 1, 3 and 64
events — so refills land inside drains, at the stream head and right
after a resume — and requires the decision hash, the metrics digest and
the event count of the single-queue engine, which has no stream and no
window.
"""

from __future__ import annotations

import sys

import pytest

import repro.sim.stream as stream_module
from repro.core.requirements import GENERAL, EligibilityRequirement
from repro.core.scheduler import VennScheduler
from repro.core.types import JobSpec
from repro.resilience import RecordingPolicy, SimulatedCrash, metrics_digest
from repro.sim.engine import SimulationConfig, Simulator
from repro.traces.capacity import CapacitySampler
from repro.traces.device_trace import DAY, DiurnalAvailabilityModel, DiurnalConfig
from tests.golden.test_golden_regression import GOLDEN_LATENCY, scenario
from tests.resilience.conftest import build_sim

WINDOWS = (1, 3, 64)


def fingerprint(sim: Simulator) -> tuple:
    """(decision hash, metrics digest, events) of a finished or fresh run."""
    metrics = sim.run()
    return (
        sim.policy.decision_hash,
        metrics_digest(metrics),
        sim.events_processed,
    )


def golden_sim(name: str, fleet: bool = True) -> Simulator:
    devices, trace, jobs, horizon = scenario(name)
    return Simulator(
        devices=devices,
        availability=trace,
        workload=jobs,
        policy=RecordingPolicy(VennScheduler(seed=7)),
        config=SimulationConfig(
            horizon=horizon,
            seed=11,
            latency=GOLDEN_LATENCY,
            vectorized_dispatch=fleet,
            enforce_daily_limit=(name == "contended"),
        ),
    )


@pytest.mark.parametrize("name", ["uncontended", "contended"])
def test_golden_scenarios_identical_at_tiny_windows(monkeypatch, name):
    expected = fingerprint(golden_sim(name, fleet=False))
    assert stream_module.STREAM_WINDOW > max(WINDOWS)
    for window in WINDOWS:
        monkeypatch.setattr(stream_module, "STREAM_WINDOW", window)
        sim = golden_sim(name)
        assert fingerprint(sim) == expected, window
        assert len(sim._stream.w_rows) <= window


def starved_sim(fleet: bool = True) -> Simulator:
    """600 devices, one day; job 2 wants hardware almost nobody has, so
    demand stays pending while hundreds of static events pass between
    responses — long pending slices on the per-event drain (goldens only
    reach short slices)."""
    rare = EligibilityRequirement("rare", min_cpu=0.97, min_memory=0.9)
    jobs = [
        JobSpec(1, GENERAL, demand_per_round=20, num_rounds=3, arrival_time=50.0,
                round_deadline=3_000.0, base_task_duration=60.0),
        JobSpec(2, rare, demand_per_round=5, num_rounds=2, arrival_time=100.0,
                round_deadline=20_000.0, base_task_duration=60.0),
    ]
    return Simulator(
        devices=CapacitySampler(seed=3).sample_devices(600),
        availability=DiurnalAvailabilityModel(
            DiurnalConfig(horizon=DAY), seed=4
        ).generate(600),
        workload=jobs,
        policy=RecordingPolicy(VennScheduler(seed=1)),
        config=SimulationConfig(
            horizon=DAY, seed=5, vectorized_dispatch=fleet,
        ),
    )


def test_long_pending_slices_identical_at_tiny_windows(monkeypatch):
    expected = fingerprint(starved_sim(fleet=False))
    refills_by_reader = set()
    refill = stream_module.DeviceStream.refill

    def counting_refill(self, p):
        refills_by_reader.add(sys._getframe(1).f_code.co_name)
        return refill(self, p)

    monkeypatch.setattr(stream_module.DeviceStream, "refill", counting_refill)
    for window in WINDOWS:
        monkeypatch.setattr(stream_module, "STREAM_WINDOW", window)
        assert fingerprint(starved_sim()) == expected, window
    # Every windowed reader of the fleet engine refilled mid-run.
    assert refills_by_reader == {"head_key", "_drain_events"}


@pytest.mark.parametrize("window", WINDOWS)
def test_snapshot_mid_window_resumes_identically(monkeypatch, window):
    expected = fingerprint(build_sim())  # single-queue
    monkeypatch.setattr(stream_module, "STREAM_WINDOW", window)
    crashed = build_sim(vectorized=True, crash_at_event=25)
    with pytest.raises(SimulatedCrash):
        crashed.run()
    stream = crashed._stream
    if window > 1:
        # The crash point sits strictly inside a decoded window.
        assert stream.w_lo < stream.cursor < stream.w_hi
    resumed = Simulator.resume(crashed.snapshot(), crash_at_event=None)
    # The stream pickles as columns; the window is rebuilt at the cursor.
    assert resumed._stream.w_rows == [] and resumed._stream.w_hi == 0
    assert resumed._stream.cursor > 0
    assert fingerprint(resumed) == expected
