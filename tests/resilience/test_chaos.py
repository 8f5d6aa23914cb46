"""The chaos harness itself: kill-and-resume sweeps must come back clean.

These run the real ``repro.resilience.chaos`` entry point on the quick
preset with small crash counts — the CI ``chaos-smoke`` job runs 20
crashes on each of the two engine cells (scalar, vectorized).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience import SimulatedCrash
from repro.resilience.chaos import build_simulator, main, run_mode
from repro.experiments.config import quick_config


@pytest.fixture(scope="module")
def cfg():
    return quick_config(seed=123)


class TestBuildSimulator:
    def test_rebuild_is_deterministic(self, cfg):
        a = build_simulator(cfg, policy_name="venn", vectorized=False)
        b = build_simulator(cfg, policy_name="venn", vectorized=False)
        am, bm = a.run(), b.run()
        assert a.policy.decisions == b.policy.decisions
        assert am.total_responses == bm.total_responses

    def test_crash_point_is_armed(self, cfg):
        sim = build_simulator(
            cfg,
            policy_name="venn",
            vectorized=False,
            crash_at_event=50,
        )
        with pytest.raises(SimulatedCrash):
            sim.run()


class TestRunMode:
    def test_scalar_mode_passes(self, cfg):
        failures = run_mode(
            cfg,
            policy_name="venn",
            vectorized=False,
            crashes=2,
            checkpoint_every=500,
            rng=np.random.default_rng(7),
        )
        assert failures == []

    def test_sharded_vectorized_mode_passes(self, cfg):
        failures = run_mode(
            cfg,
            policy_name="venn",
            vectorized=True,
            crashes=2,
            checkpoint_every=500,
            rng=np.random.default_rng(7),
        )
        assert failures == []


class TestMain:
    def test_tiny_invocation_exits_zero(self, capsys):
        rc = main(
            [
                "--crashes", "1",
                "--modes", "scalar",
                "--preset", "quick",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "bit-identical" in captured.out

    def test_argument_validation(self):
        with pytest.raises(SystemExit):
            main(["--modes", "warp-drive"])
