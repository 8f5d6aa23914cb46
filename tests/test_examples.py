"""The shipped examples run end to end.

``examples/custom_policy.py`` is the repository's only example of a policy
written outside the library: it subclasses ``BasePolicy`` and answers
``assign(device_id, now)`` through the bound eligibility table.  It runs in
a subprocess, as a user would run it, and its table is pinned.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_custom_policy_example_prints_its_table():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "custom_policy.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    rows = {
        cells[0]: cells[1:]
        for cells in (
            [cell.strip() for cell in line.split("|")]
            for line in result.stdout.splitlines()
            if line.count("|") == 3
        )
    }
    assert rows["random"] == ["12.86", "1.00", "0.62"]
    assert rows["srsf"] == ["9.63", "1.33", "0.75"]
    assert rows["venn"] == ["8.72", "1.47", "0.81"]
    assert rows["least_progress (custom)"] == ["16.88", "0.76", "0.38"]
