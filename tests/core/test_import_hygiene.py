"""``scipy`` is an oracle dependency (``solve_irs_milp``, two tail
statistics), not a simulation one: importing the package and running a
simulation must not load it — it costs every bench worker, sweep child and
CLI ~0.4 s of start-up and ~50 MB of resident memory.  Nor may a simulation
load ``numpy.ma`` (~15 ms), which a plain ``np.unique`` of integers — numpy's
hash path — imports on its first call.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

SCRIPT = """
import sys
import repro
assert "scipy" not in sys.modules, "import repro loaded scipy"

from repro.core import make_policy
from repro.sim import SimulationConfig, Simulator
from repro.traces import (
    CapacitySampler, DiurnalAvailabilityModel, DiurnalConfig, WorkloadConfig,
    WorkloadGenerator,
)

horizon = 6 * 3600.0
devices = CapacitySampler(seed=1).sample_devices(300)
trace = DiurnalAvailabilityModel(DiurnalConfig(horizon=horizon), seed=2).generate(300)
jobs = WorkloadGenerator(
    WorkloadConfig(num_jobs=3, min_demand=5, max_demand=20, max_rounds=3,
                   mean_interarrival=600.0),
    seed=3,
).generate()
for vectorized in (False, True):
    sim = Simulator(
        devices, trace, jobs, make_policy("venn", seed=4),
        SimulationConfig(horizon=horizon, seed=4, vectorized_dispatch=vectorized),
    )
    metrics = sim.run()
    assert sim.events_processed > 0 and metrics.total_responses > 0
assert "scipy" not in sys.modules, "a simulation loaded scipy"
assert "numpy.ma" not in sys.modules, "a simulation loaded numpy.ma"
print("clean")
"""


def test_import_and_simulation_leave_scipy_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "clean"


def test_ci_runs_the_check_and_never_regenerates_goldens():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "assert 'scipy' not in sys.modules" in workflow
    assert "assert 'numpy.ma' not in sys.modules" in workflow
    assert "REGEN_GOLDEN" not in workflow
