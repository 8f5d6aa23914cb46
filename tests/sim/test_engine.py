"""Integration tests for the event-driven simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import FIFOPolicy, RandomMatchingPolicy, SRSFPolicy, make_policy
from repro.core.policy import BasePolicy
from repro.core.requirements import GENERAL, HIGH_PERFORMANCE, EligibilityRequirement
from repro.core.scheduler import VennScheduler
from repro.core.types import ResourceRequest
from repro.sim.engine import SimulationConfig, Simulator, run_simulation
from repro.sim.latency import LatencyConfig
from repro.traces.device_trace import AvailabilitySession, DeviceAvailabilityTrace
from tests.conftest import make_device, make_job

#: Deterministic latency: exactly 100 s per task, no noise, no comm jitter.
DETERMINISTIC_LATENCY = LatencyConfig(compute_sigma=0.0, comm_min=10.0, comm_max=10.0)


def make_trace(sessions):
    """Build an availability trace from (device_id, start, end) tuples."""
    horizon = max(end for (_, _, end) in sessions)
    return DeviceAvailabilityTrace(
        horizon=horizon,
        sessions=[AvailabilitySession(d, s, e) for (d, s, e) in sessions],
    )


def always_on_trace(num_devices, horizon):
    return make_trace([(i, 0.0, horizon) for i in range(num_devices)])


def sim_config(horizon, seed=0, daily_limit=False):
    return SimulationConfig(
        horizon=horizon,
        enforce_daily_limit=daily_limit,
        seed=seed,
        latency=DETERMINISTIC_LATENCY,
    )


class TestSingleJobCompletion:
    def test_job_completes_with_ample_devices(self):
        devices = [make_device(device_id=i, speed=1.0) for i in range(10)]
        trace = always_on_trace(10, horizon=10_000.0)
        job = make_job(job_id=1, demand=5, rounds=2, deadline=5_000.0,
                       base_task_duration=90.0)
        metrics = run_simulation(
            devices, trace, [job], FIFOPolicy(), sim_config(10_000.0)
        )
        jm = metrics.jobs[1]
        assert jm.completed
        assert jm.rounds_completed == 2
        assert jm.aborted_rounds == 0
        # Each round: devices assigned immediately (delay 0), ~100 s response.
        assert jm.scheduling_delays == [0.0, 0.0]
        assert len(jm.response_times) == 2
        assert all(90.0 <= r <= 130.0 for r in jm.response_times)
        assert metrics.completion_rate == 1.0
        assert metrics.average_jct == pytest.approx(jm.jct)

    def test_scheduling_delay_reflects_device_arrivals(self):
        """Devices check in at t=100 and t=200; the request opens at t=0."""
        devices = [make_device(device_id=0), make_device(device_id=1)]
        trace = make_trace([(0, 100.0, 5_000.0), (1, 200.0, 5_000.0)])
        job = make_job(job_id=1, demand=2, rounds=1, deadline=4_000.0,
                       base_task_duration=50.0)
        metrics = run_simulation(devices, trace, [job], FIFOPolicy(), sim_config(5_000.0))
        jm = metrics.jobs[1]
        assert jm.completed
        assert jm.scheduling_delays[0] == pytest.approx(200.0)

    def test_job_censored_when_devices_insufficient(self):
        devices = [make_device(device_id=0)]
        trace = always_on_trace(1, horizon=2_000.0)
        job = make_job(job_id=1, demand=5, rounds=1, deadline=500.0)
        metrics = run_simulation(devices, trace, [job], FIFOPolicy(), sim_config(2_000.0))
        jm = metrics.jobs[1]
        assert not jm.completed
        assert jm.jct is None
        assert metrics.average_jct == pytest.approx(2_000.0)
        assert metrics.total_aborts >= 1


class TestDeadlinesAndFailures:
    def test_round_aborts_and_retries_after_deadline(self):
        """Only one device exists for a demand of two, so the first attempt
        aborts; a second device appearing later lets the retry complete."""
        devices = [make_device(device_id=0), make_device(device_id=1)]
        trace = make_trace([(0, 0.0, 20_000.0), (1, 3_000.0, 20_000.0)])
        job = make_job(job_id=1, demand=2, rounds=1, deadline=1_000.0,
                       base_task_duration=50.0)
        metrics = run_simulation(devices, trace, [job], FIFOPolicy(), sim_config(20_000.0))
        jm = metrics.jobs[1]
        assert jm.completed
        assert jm.aborted_rounds >= 1
        assert metrics.total_aborts >= 1

    def test_unreliable_devices_cause_failures(self):
        devices = [
            make_device(device_id=i, reliability=0.0) for i in range(4)
        ] + [make_device(device_id=10 + i, reliability=1.0) for i in range(8)]
        trace = always_on_trace(4, horizon=30_000.0).sessions + [
            AvailabilitySession(10 + i, 0.0, 30_000.0) for i in range(8)
        ]
        trace = DeviceAvailabilityTrace(horizon=30_000.0, sessions=trace)
        job = make_job(job_id=1, demand=6, rounds=1, deadline=20_000.0,
                       base_task_duration=50.0)
        metrics = run_simulation(devices, trace, [job], FIFOPolicy(), sim_config(30_000.0))
        assert metrics.total_failures >= 1

    def test_device_going_offline_mid_task_fails(self):
        devices = [make_device(device_id=0), make_device(device_id=1)]
        # Device 0's session ends 10 s after the task starts (task needs ~110 s).
        trace = make_trace([(0, 0.0, 10.0), (1, 500.0, 10_000.0)])
        job = make_job(job_id=1, demand=1, rounds=1, deadline=5_000.0,
                       base_task_duration=100.0)
        metrics = run_simulation(devices, trace, [job], FIFOPolicy(), sim_config(10_000.0))
        assert metrics.total_failures >= 1
        # The job still finishes thanks to the second attempt / device.
        assert metrics.jobs[1].completed

    def test_min_report_fraction_allows_partial_failures(self):
        """With 80 % reporting required, one dropout among five still succeeds."""
        devices = [make_device(device_id=0, reliability=0.0)] + [
            make_device(device_id=i, reliability=1.0) for i in range(1, 5)
        ]
        trace = always_on_trace(5, horizon=20_000.0)
        job = make_job(job_id=1, demand=5, rounds=1, deadline=10_000.0,
                       base_task_duration=50.0)
        metrics = run_simulation(devices, trace, [job], FIFOPolicy(), sim_config(20_000.0))
        jm = metrics.jobs[1]
        assert jm.completed
        assert jm.aborted_rounds == 0


class TestDailyLimit:
    def test_daily_limit_prevents_second_participation(self):
        devices = [make_device(device_id=0)]
        trace = always_on_trace(1, horizon=20_000.0)
        # Two rounds of demand 1: without the limit the single device would
        # serve both; with it the second round starves until the horizon.
        job = make_job(job_id=1, demand=1, rounds=2, deadline=2_000.0,
                       base_task_duration=50.0)
        limited = run_simulation(
            devices, trace, [job], FIFOPolicy(),
            SimulationConfig(horizon=20_000.0, enforce_daily_limit=True, seed=0,
                             latency=DETERMINISTIC_LATENCY),
        )
        unlimited = run_simulation(
            devices, trace, [job], FIFOPolicy(),
            SimulationConfig(horizon=20_000.0, enforce_daily_limit=False, seed=0,
                             latency=DETERMINISTIC_LATENCY),
        )
        assert unlimited.jobs[1].completed
        assert not limited.jobs[1].completed

    def test_aborted_round_does_not_consume_daily_budget(self):
        """A device whose round aborts may participate again the same day."""
        devices = [make_device(device_id=0)]
        trace = always_on_trace(1, horizon=30_000.0)
        # Demand 2 can never be met, so round 0 aborts forever, but the single
        # device must keep being re-assigned on every retry (not just once).
        job = make_job(job_id=1, demand=2, rounds=1, deadline=1_000.0,
                       base_task_duration=50.0)
        metrics = run_simulation(
            devices, trace, [job], FIFOPolicy(),
            SimulationConfig(horizon=10_000.0, enforce_daily_limit=True, seed=0,
                             latency=DETERMINISTIC_LATENCY),
        )
        # Several aborted attempts, each with the device assigned again.
        assert metrics.total_aborts >= 3
        assert metrics.total_responses + metrics.total_failures >= 3


class TestEngineValidation:
    def test_unknown_device_in_trace_rejected(self):
        devices = [make_device(device_id=0)]
        trace = make_trace([(5, 0.0, 100.0)])
        with pytest.raises(ValueError):
            Simulator(devices, trace, [make_job(1)], FIFOPolicy(), sim_config(100.0))

    def test_unknown_devices_named_first_five_sorted(self):
        devices = [make_device(device_id=0), make_device(device_id=3)]
        trace = make_trace(
            [(d, 0.0, 100.0) for d in (9, 3, 7, 7, 0, 12, 8, 11, 10)]
        )
        with pytest.raises(ValueError) as err:
            Simulator(devices, trace, [make_job(1)], FIFOPolicy(), sim_config(100.0))
        assert str(err.value) == (
            "availability trace references unknown devices: [7, 8, 9, 10, 11]"
        )

    def test_duplicate_job_ids_rejected(self):
        devices = [make_device(device_id=0)]
        trace = always_on_trace(1, 100.0)
        jobs = [make_job(1), make_job(1)]
        with pytest.raises(ValueError):
            Simulator(devices, trace, jobs, FIFOPolicy(), sim_config(100.0))

    @pytest.mark.parametrize(
        "engine",
        [{"vectorized_dispatch": False}, {"vectorized_dispatch": True}],
        ids=["single-queue", "vectorized"],
    )
    def test_duplicate_device_ids_rejected(self, engine):
        """Two profiles with one id used to collapse into one DeviceRuntime,
        and the engines then disagreed on the check-in count (3 vs 2)."""
        devices = [make_device(device_id=i) for i in (0, 0, 1)]
        trace = always_on_trace(2, 100.0)
        config = SimulationConfig(horizon=100.0, seed=0, **engine)
        with pytest.raises(ValueError, match="device ids must be unique"):
            Simulator(devices, trace, [make_job(1)], FIFOPolicy(), config)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_horizon_rejected(self, horizon):
        """``nan <= 0`` is false: NaN used to pass, then the single-queue
        engine returned JCT 0.0 and the fleet engine died merging metrics
        "of different horizons: nan vs nan"."""
        with pytest.raises(ValueError, match="horizon must be finite"):
            SimulationConfig(horizon=horizon)

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_non_positive_horizon_keeps_its_message(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive"):
            SimulationConfig(horizon=horizon)

    @pytest.mark.parametrize("name", ["checkpoint_interval", "max_events"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_counts_must_be_real_ints(self, name, value):
        """``checkpoint_interval=1.5`` used to checkpoint against a
        fractional watermark."""
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            SimulationConfig(**{name: value})

    def test_int_counts_accepted_and_keep_their_range_messages(self):
        config = SimulationConfig(checkpoint_interval=np.int64(7), max_events=10)
        assert config.checkpoint_interval == 7 and config.max_events == 10
        assert SimulationConfig(checkpoint_interval=None).checkpoint_interval is None
        for kwargs, message in [
            (dict(max_events=0), "max_events must be positive"),
            (dict(checkpoint_interval=0), "checkpoint_interval must be positive"),
        ]:
            with pytest.raises(ValueError, match=message):
                SimulationConfig(**kwargs)

    @pytest.mark.parametrize("name", ["enforce_daily_limit", "vectorized_dispatch"])
    @pytest.mark.parametrize("value", ["no", None, 0, 1, np.bool_(True)])
    def test_toggles_must_be_real_bools(self, name, value):
        """``vectorized_dispatch="no"`` used to select the fleet engine and
        ``enforce_daily_limit=None`` to drop the one-job-per-day limit."""
        with pytest.raises(TypeError, match=f"{name} must be a bool"):
            SimulationConfig(**{name: value})

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "7"])
    def test_seed_must_be_an_int(self, value):
        """``seed=1.5`` used to pass the config and fail inside numpy at
        ``Simulator()``."""
        with pytest.raises(TypeError, match="seed must be an int"):
            SimulationConfig(seed=value)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimulationConfig(seed=-1)

    @pytest.mark.parametrize("seed", [None, 0, np.uint32(7), 2**127])
    def test_valid_seeds_accepted(self, seed):
        assert SimulationConfig(seed=seed).seed == seed

    @pytest.mark.parametrize("vectorized", [False, True], ids=["reference", "fleet"])
    def test_ineligible_policy_assignment_detected(self, vectorized):
        class BadPolicy(BasePolicy):
            name = "bad"

            def assign(self, device_id, now):
                # Return the first open request regardless of eligibility.
                return next(iter(self.open_requests.values()), None)

        devices = [make_device(device_id=0, cpu=0.1, mem=0.1)]
        trace = always_on_trace(1, 1_000.0)
        job = make_job(1, requirement=HIGH_PERFORMANCE, demand=1, rounds=1)
        config = sim_config(1_000.0)
        config.vectorized_dispatch = vectorized
        with pytest.raises(ValueError, match="ineligible device 0"):
            run_simulation(devices, trace, [job], BadPolicy(), config)

    @pytest.mark.parametrize(
        "vectorized, bulk",
        [(False, False), (True, False), (True, True)],
        ids=["reference", "fleet", "fleet-bulk"],
    )
    def test_assignment_to_unknown_job_detected(self, vectorized, bulk):
        """A request naming a job the simulator does not run is refused on
        the per-device consult and on the fleet engine's bulk commit."""
        stray = ResourceRequest(
            request_id=99, job_id=42, demand=1, submit_time=0.0,
            deadline=100.0, min_reports=1,
        )

        class StrayPolicy(BasePolicy):
            name = "stray"

            def assign(self, device_id, now):
                return None if bulk else stray

        if bulk:
            StrayPolicy.assign_batch_bulk = (
                lambda self, device_ids, now: (len(device_ids), [(0, stray)])
            )
        config = sim_config(1_000.0)
        config.vectorized_dispatch = vectorized
        with pytest.raises(ValueError, match="device 0 to unknown job 42"):
            run_simulation(
                [make_device(device_id=0)], always_on_trace(1, 1_000.0),
                # Arriving after the check-in, the job's request is offered
                # the idle device by a dispatch sweep (the bulk path).
                [make_job(1, demand=1, rounds=1, arrival=10.0)], StrayPolicy(),
                config,
            )

    @pytest.mark.parametrize("vectorized", [False, True], ids=["reference", "fleet"])
    def test_reused_requirement_name_rejected(self, vectorized):
        """A name is a requirement's identity: two different requirements
        sharing one are refused at construction, on both engines."""
        stricter = EligibilityRequirement("general", min_cpu=0.5)
        jobs = [make_job(1, GENERAL), make_job(2, stricter)]
        config = sim_config(1_000.0)
        config.vectorized_dispatch = vectorized
        with pytest.raises(ValueError, match="requirement name 'general' is reused"):
            Simulator(
                [make_device()], always_on_trace(1, 1_000.0), jobs, FIFOPolicy(), config
            )
        # The same requirement under two jobs, or an equal copy, is fine.
        twin = EligibilityRequirement("general")
        Simulator(
            [make_device()],
            always_on_trace(1, 1_000.0),
            [make_job(1, GENERAL), make_job(2, twin)],
            FIFOPolicy(),
            config,
        )


class TestJobCategories:
    """A job's metrics category: the workload's category map, else the
    name of the job's requirement."""

    def _categories(self, workload):
        devices = [make_device(device_id=i, cpu=0.9, mem=0.9) for i in range(4)]
        metrics = run_simulation(
            devices, always_on_trace(4, 2_000.0), workload, FIFOPolicy(),
            sim_config(2_000.0),
        )
        return {job_id: jm.category for job_id, jm in metrics.jobs.items()}

    def test_a_job_list_is_categorised_by_requirement(self):
        jobs = [make_job(1, GENERAL, demand=2), make_job(2, HIGH_PERFORMANCE, demand=2)]
        assert self._categories(jobs) == {1: "general", 2: "high_performance"}

    def test_a_workload_map_wins_and_gaps_fall_back(self):
        from repro.traces.job_trace import JobDemandTrace
        from repro.traces.workloads import Workload, WorkloadConfig

        jobs = [make_job(1, GENERAL, demand=2), make_job(2, GENERAL, demand=2)]
        workload = Workload(
            config=WorkloadConfig(num_jobs=2), jobs=jobs,
            trace=JobDemandTrace(), categories={1: "keyboard"},
        )
        assert self._categories(workload) == {1: "keyboard", 2: "general"}


class TestMultiPolicyIntegration:
    def _environment(self):
        rng = np.random.default_rng(0)
        devices = []
        sessions = []
        for i in range(60):
            cpu, mem = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            devices.append(make_device(device_id=i, cpu=cpu, mem=mem,
                                       speed=float(rng.uniform(0.5, 3.0))))
            start = float(rng.uniform(0, 5_000))
            sessions.append((i, start, start + 40_000.0))
        trace = make_trace(sessions)
        jobs = [
            make_job(1, GENERAL, demand=8, rounds=2, deadline=8_000.0,
                     base_task_duration=60.0),
            make_job(2, HIGH_PERFORMANCE, demand=5, rounds=2, deadline=8_000.0,
                     base_task_duration=60.0),
            make_job(3, GENERAL, demand=4, rounds=3, deadline=8_000.0,
                     base_task_duration=60.0),
        ]
        return devices, trace, jobs

    @pytest.mark.parametrize(
        "policy_name",
        ["random", "uniform_random", "fifo", "srsf", "venn", "venn_wo_match",
         "venn_wo_sched", "job_driven_random"],
    )
    def test_every_policy_completes_small_workload(self, policy_name):
        devices, trace, jobs = self._environment()
        policy = make_policy(policy_name, seed=1)
        metrics = run_simulation(
            devices, trace, jobs, policy,
            SimulationConfig(horizon=45_000.0, enforce_daily_limit=False, seed=2,
                             latency=LatencyConfig(compute_sigma=0.2)),
        )
        assert metrics.completion_rate == 1.0
        for jm in metrics.jobs.values():
            assert jm.jct is not None and jm.jct > 0
            assert jm.rounds_completed == jm.num_rounds

    def test_simulation_is_deterministic(self):
        devices, trace, jobs = self._environment()

        def run_once():
            return run_simulation(
                devices, trace, jobs, VennScheduler(seed=3),
                SimulationConfig(horizon=45_000.0, enforce_daily_limit=False,
                                 seed=4, latency=LatencyConfig()),
            )

        a, b = run_once(), run_once()
        assert a.average_jct == pytest.approx(b.average_jct)
        assert [m.jct for m in a.jobs.values()] == [m.jct for m in b.jobs.values()]

    def test_conservation_of_assignments(self):
        """Responses + failures never exceed check-ins when each device can
        participate at most once (daily limit on, one-day horizon)."""
        devices, trace, jobs = self._environment()
        metrics = run_simulation(
            devices, trace, jobs, SRSFPolicy(),
            SimulationConfig(horizon=40_000.0, enforce_daily_limit=True, seed=5,
                             latency=LatencyConfig()),
        )
        assert metrics.total_responses + metrics.total_failures <= metrics.total_checkins


class TestDayRolloverGoldenTrace:
    """Two-day golden micro-trace of the daily-limit park/promote cycle.

    One device, one two-round demand-1 job, daily limit on.  The exact
    event sequence is pinned (deterministic latency):

    * day 0: the device checks in at t=0, serves round 0 (70 s), and is
      benched for the rest of the day;
    * day 1: the device's second session starts exactly at the midnight
      boundary t=86400 — the boundary timestamp itself must already count
      as "tomorrow", so the check-in is immediately dispatchable and round
      1 completes at t=86470.

    Both engines (single-queue, vectorized) must reproduce the
    same golden timings.
    """

    HORIZON = 2 * 86400.0

    def _build(self):
        devices = [make_device(device_id=0)]
        trace = make_trace([
            (0, 0.0, 80_000.0),
            (0, 86_400.0, 170_000.0),
        ])
        job = make_job(job_id=1, demand=1, rounds=2, deadline=100_000.0,
                       base_task_duration=60.0)
        return devices, trace, [job]

    def _config(self, **overrides):
        return SimulationConfig(
            horizon=self.HORIZON, enforce_daily_limit=True, seed=0,
            latency=DETERMINISTIC_LATENCY, **overrides,
        )

    def _assert_golden(self, metrics):
        jm = metrics.jobs[1]
        assert jm.completed
        assert jm.rounds_completed == 2
        assert jm.aborted_rounds == 0
        # Round 0: assigned at t=0, 60 s compute + 10 s comm.
        assert jm.round_completion_times[0] == pytest.approx(70.0)
        # Round 1: request opened at t=70, device benched until midnight;
        # the day-1 check-in at exactly t=86400 serves it immediately.
        assert jm.scheduling_delays[1] == pytest.approx(86_400.0 - 70.0)
        assert jm.round_completion_times[1] == pytest.approx(86_470.0)

    def test_single_queue_engine(self):
        devices, trace, jobs = self._build()
        self._assert_golden(
            run_simulation(
                devices, trace, jobs, FIFOPolicy(),
                self._config(vectorized_dispatch=False),
            )
        )

    def test_vectorized_engine(self):
        devices, trace, jobs = self._build()
        self._assert_golden(
            run_simulation(
                devices, trace, jobs, FIFOPolicy(),
                self._config(vectorized_dispatch=True),
            )
        )

    def test_session_just_below_midnight_stays_benched(self):
        """A day-0 re-check-in one ULP below midnight must NOT dispatch."""
        import math

        devices = [make_device(device_id=0)]
        below = math.nextafter(86_400.0, 0.0)
        trace = make_trace([
            (0, 0.0, 80_000.0),
            (0, below, 170_000.0),  # still day 0: budget spent
        ])
        job = make_job(job_id=1, demand=1, rounds=2, deadline=200_000.0,
                       base_task_duration=60.0)
        for fleet in (False, True):
            metrics = run_simulation(devices, trace, [job],
                                     FIFOPolicy(),
                                     self._config(vectorized_dispatch=fleet))
            jm = metrics.jobs[1]
            # Round 0 completes; the re-check-in one ULP below midnight is
            # still day 0, so the daily budget keeps the device benched and
            # round 1 never gets its assignment before the horizon.
            assert jm.rounds_completed == 1
            assert not jm.completed
