"""Spans recorded from outside the program, around calls into its layers.

Phase spans (a handful per run) are kept individually as
``{name, start, end, parent}``.  Per-call spans at the policy boundary run to
hundreds of thousands, so they are kept as start/end arrays per callable and
reduced when the run ends to count / total / p50 / p99 / p99.9.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

import numpy as np


class Spans:
    def __init__(self) -> None:
        self.phases: List[Dict] = []
        self._open: List[str] = []
        self._calls: Dict[str, tuple] = {}
        self._sizes: Dict[str, List[int]] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.phases.append(
                {"name": name, "start": start, "end": end, "parent": parent}
            )

    def totals(self) -> Dict[str, float]:
        """Seconds spent in phase spans, summed by name."""
        out: Dict[str, float] = {}
        for p in self.phases:
            out[p["name"]] = out.get(p["name"], 0.0) + p["end"] - p["start"]
        return out

    def timed(self, name: str, fn, sized: bool = False):
        """``fn`` wrapped to record one span per call under ``name``; with
        ``sized`` the length of its first argument is summed as well."""
        starts, ends = self._calls.setdefault(name, (array("d"), array("d")))
        add_start, add_end, clock = starts.append, ends.append, perf_counter
        size = self._sizes.setdefault(name, [0]) if sized else None

        def call(*args, **kwargs):
            if size is not None:
                size[0] += len(args[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add_end(clock())
                add_start(start)

        return call

    def _parent_of(self, at: float) -> Optional[str]:
        """Innermost phase span covering instant ``at``."""
        best = None
        for p in self.phases:
            if p["start"] <= at <= p["end"] and (
                best is None or p["start"] >= best["start"]
            ):
                best = p
        return best["name"] if best else None

    def reduce_calls(self) -> Dict[str, Dict]:
        out: Dict[str, Dict] = {}
        for name, (starts, ends) in self._calls.items():
            if not len(starts):
                continue
            took = np.frombuffer(ends, dtype=float) - np.frombuffer(starts, dtype=float)
            p50, p99, p999 = np.percentile(took, (50.0, 99.0, 99.9)) * 1e6
            out[name] = {
                "parent": self._parent_of(starts[0]),
                "count": int(took.size),
                "total_s": float(took.sum()),
                "p50_us": float(p50),
                "p99_us": float(p99),
                "p999_us": float(p999),
            }
            if name in self._sizes:
                out[name]["items"] = self._sizes[name][0]
        return out


class PolicyProxy:
    """Transparent timing proxy over the ``SchedulingPolicy`` protocol.

    Every public callable of the wrapped policy is timed under
    ``core.<name>``; attribute reads and writes go to the wrapped policy, and
    a hook it lacks raises ``AttributeError`` here too, so the engine's
    ``getattr``/``hasattr`` probes see exactly the policy they would have
    seen.  Timed callables are the wrapped policy's own bound methods, so
    its internal calls (a default ``assign_batch`` walking ``assign``) stay
    inside one span and never nest.
    """

    def __init__(self, inner, spans: Spans) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_spans", spans)

    def __getattr__(self, name: str):
        value = getattr(object.__getattribute__(self, "_inner"), name)
        if name.startswith("_") or not callable(value):
            return value
        spans = object.__getattribute__(self, "_spans")
        timed = spans.timed(
            "core." + name, value, sized=name.startswith("assign_batch")
        )
        object.__setattr__(self, name, timed)
        return timed

    def __setattr__(self, name: str, value) -> None:
        setattr(object.__getattribute__(self, "_inner"), name, value)
