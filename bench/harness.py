"""Runs a workload: fresh subprocess per repeat, correctness ledger, metrics.

A run is a closed loop with one client: the next repeat starts when the
previous one has ended.  Nothing is warmed between repeats, because a user of
the simulator pays imports, trace generation and a cold supply estimator on
every run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import OUT, ROOT, SRC
from .metrics import end_to_end, host_times, per_layer
from .workloads import MIN_REPEATS, WORKLOADS

#: The contract's limit for one command is 180 s; a repeat gets less.
REPEAT_TIMEOUT_S = 150


def spawn(name: str, seed: int, mode: str, smoke: bool, src: Path = SRC) -> Dict:
    """One repeat in a fresh interpreter; a repeat that dies or prints no
    record comes back as ``{"mode", "error"}``."""
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", name, "--seed", str(seed), "--mode", mode,
        "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(ROOT)))}
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REPEAT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"no result within {REPEAT_TIMEOUT_S} s"}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return {"mode": mode, "error": f"exit code {done.returncode}: {tail[0]}"}
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"mode": mode, "error": "no JSON record on stdout"}


def ledger(
    plain: List[Dict], traced: List[Dict], twin: Optional[Dict]
) -> Dict:
    """Count operations attempted and failed.

    One op per repeat: it fails if the process failed, a sanity predicate
    failed, or any digest it shares with the first good repeat differs —
    traced repeats included, which is what shows the proxy and the profiler
    change nothing.  One op per sweep cell of an untraced repeat.  One twin
    op per day workload: fast and reference engine must agree.
    """
    attempted, failures = 0, []
    reference = next((r for r in plain + traced if "error" not in r), None)
    for record in plain + traced:
        attempted += 1
        label = f"{record['mode']} repeat"
        if "error" in record:
            failures.append(f"{label}: {record['error']}")
            continue
        if record["sanity"]:
            failures.append(f"{label}: failed {', '.join(record['sanity'])}")
        elif any(
            reference["digests"].get(key, digest) != digest
            for key, digest in record["digests"].items()
        ):
            failures.append(f"{label}: digest differs from the first repeat's")
        if record["mode"] == "plain" and "planned_cells" in record:
            attempted += record["planned_cells"]
            lost = record["planned_cells"] - record["rows"]
            failures += [f"{label}: cell {c} failed" for c in record["failed_cells"]]
            failures += [f"{label}: a planned cell has no row"] * max(0, lost)
    if twin is not None:
        attempted += 1
        if "error" in twin:
            failures.append(f"twin: {twin['error']}")
        elif twin["digests"]["fast"] != twin["digests"]["reference"]:
            failures.append("twin: fast and reference engine disagree")
    return {"attempted": attempted, "failed": len(failures), "failures": failures}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    timed: bool,
    traced: bool,
    smoke: bool = False,
) -> Dict:
    """Run one workload and reduce it.

    ``timed``: untraced repeats for ``seconds`` seconds, never fewer than
    ``MIN_REPEATS`` (one under ``smoke``) → end-to-end metrics; otherwise one
    untraced repeat.  ``traced``: a spans-traced and a profiled repeat more →
    per-layer metrics, and for a day workload the twin check.
    """
    workload = WORKLOADS[name]
    began = time.perf_counter()
    plain = [spawn(name, seed, "plain", smoke)]
    if timed and not smoke:
        # A failed repeat ends the run: its cause will not go away.
        while "error" not in plain[-1] and (
            len(plain) < MIN_REPEATS
            or time.perf_counter() - began + max(r["total_s"] for r in plain)
            <= seconds
        ):
            plain.append(spawn(name, seed, "plain", smoke))
    extra = [spawn(name, seed, mode, smoke) for mode in ("spans", "profile")] if traced else []
    twin = (
        spawn(name, seed, "twin", smoke) if traced and workload.kind == "day" else None
    )

    result = {"workload": name, "seed": seed, **ledger(plain, extra, twin)}
    result["correct"] = result["failed"] == 0
    good = [r for r in plain if "error" not in r]
    if good:
        result["end_to_end"] = end_to_end(good)
        result["host_times"] = host_times(good)
        result["digests"] = good[0]["digests"]
        result["events"] = good[0]["events"]
    if traced and good and "error" not in extra[0]:
        spans, profile = extra
        result["per_layer"] = per_layer(
            workload, good[0], spans, None if "error" in profile else profile
        )
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{name}.json", "w") as fh:
            json.dump(
                {
                    "workload": name,
                    "seed": seed,
                    "phases": spans["trace"],
                    "calls": spans["calls"],
                },
                fh,
                indent=1,
            )
    return result
