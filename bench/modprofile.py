"""Module profile: ``cProfile`` self time and primitive-call counts summed by
source file into the program's layers.

Call counts repeat exactly for fixed inputs, so they are the
hardware-independent companion to the wall-clock numbers; ``self_s`` under a
profiler says *where* time goes, never how much faster something got.
"""

from __future__ import annotations

import cProfile
import re
from typing import Callable, Dict, List, Tuple

#: Layers = the packages of ``src/repro`` the workloads exercise, plus the two
#: places their time goes outside the repo.
PACKAGES = ("traces", "sim", "core", "experiments", "scenarios", "analysis")
OUTSIDE = ("numpy", "builtins")
#: Files reported on their own as well as inside their package.  A file that
#: no longer exists reports 0; a new file shows up in its package.
FILES = (
    "sim.engine", "sim.vector", "sim.shard", "sim.latency", "sim.events",
    "sim.dispatch", "sim.metrics",
    "core.scheduler", "core.plan_delta", "core.irs", "core.supply",
    "core.matching", "core.atom_index", "core.types",
    "traces.device_trace", "traces.capacity",
)
LAYERS = PACKAGES + OUTSIDE + FILES

_REPRO_FILE = re.compile(r"[/\\]repro[/\\](\w+)[/\\](\w+)\.py$")
_NUMPY_FILE = re.compile(r"[/\\]numpy[/\\]")


def _layers_of(filename: str) -> List[str]:
    if filename == "~":  # cProfile's name for C builtins
        return ["builtins"]
    match = _REPRO_FILE.search(filename)
    if match:
        package, module = match.groups()
        return [package, f"{package}.{module}"]
    return ["numpy"] if _NUMPY_FILE.search(filename) else []


def profiled(fn: Callable[[], object]) -> Tuple[object, Dict[str, Dict], int]:
    """Run ``fn`` under cProfile; returns its result, the per-layer
    ``{"self_s", "calls"}`` table and the total primitive-call count."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    profiler.create_stats()
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    total_calls = 0
    for (filename, _line, _func), (prim_calls, _n, self_s, _cum, _callers) in (
        profiler.stats.items()
    ):
        total_calls += prim_calls
        for layer in _layers_of(filename):
            if layer in table:
                table[layer]["self_s"] += self_s
                table[layer]["calls"] += prim_calls
    return result, table, total_calls
