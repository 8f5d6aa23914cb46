"""The snapshot layout is pinned to ``SNAPSHOT_FORMAT_VERSION``.

A snapshot is the pickled simulator graph, so its format is whatever that
graph holds.  This module derives the layout from the graph itself: it
walks a mid-run simulator the way pickle does and lists, for every
``repro`` class it reaches, the attributes pickle writes (through the
class's own ``__getstate__`` where it has one) and the kind of each value:

* a container as its type, with the kinds of its elements (keys and
  values for a dict) and the width of each tuple one level down;
* an array as its dtype and number of dimensions;
* a ``repro`` object as its qualified class name, and anything else as its
  class name only, so numpy or Python versions cannot move the listing;
* ``None`` folded out: an attribute that is ``None`` in one instance and a
  float in another reads ``float``.

The walk covers both engines, each under the Recording-wrapped Venn that
``build_sim`` builds and under a seeded ``random`` policy.  The listing is
committed in ``snapshot_layout.json`` together with the format version it
belongs to, and :func:`test_layout_is_pinned_to_the_format_version` fails
when the layout moves without a version bump or the version moves without
a layout change.  After a deliberate layout change, bump the version in
``repro/resilience/snapshot.py`` and re-pin from the repository root::

    PYTHONPATH=src python -m tests.resilience.test_snapshot_layout

which refuses to pin a new layout under the old version or the old layout
under a new one.
"""

from __future__ import annotations

import json
import sys
import types
from collections import deque
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Set

import numpy as np
import pytest

from repro.core.baselines import make_policy
from repro.resilience import SimulatedCrash
from repro.resilience.snapshot import SNAPSHOT_FORMAT_VERSION
from repro.sim.engine import Simulator
from tests.resilience.conftest import build_sim

LAYOUT_FILE = Path(__file__).with_name("snapshot_layout.json")

#: The event a walked simulator is stopped at (of 44): both jobs running,
#: three rounds closed, five responses recorded and seven in flight.
MID_RUN_EVENT = 28

ENGINES = ("reference", "fleet")
CONTAINERS = (list, tuple, set, frozenset, dict, deque)

#: class -> attribute -> kinds seen across every instance.
Layout = Dict[str, Dict[str, Set[Optional[str]]]]


def _is_repro(cls: type) -> bool:
    return cls.__module__.partition(".")[0] == "repro"


def _class_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}" if _is_repro(cls) else cls.__name__


def _dtype(dtype: np.dtype) -> str:
    if dtype.names is None:
        return dtype.name
    return "{" + ", ".join(f"{n}: {dtype.fields[n][0].name}" for n in dtype.names) + "}"


def _kind(value, inner: bool = False) -> Optional[str]:
    """The listing's name for ``value``; ``inner`` is one level down in a
    container, where a container is its type (a tuple its width)."""
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return f"ndarray[{_dtype(value.dtype)}, {value.ndim}d]"
    if not isinstance(value, CONTAINERS) or _is_repro(type(value)):
        return _class_name(type(value))
    name = type(value).__name__
    if inner:
        return f"tuple{len(value)}" if type(value) is tuple else name
    if not value:
        return name
    if isinstance(value, dict):
        return f"{name}[{_kinds(value.keys())}: {_kinds(value.values())}]"
    return f"{name}[{_kinds(value)}]"


def _kinds(values) -> str:
    return " | ".join(sorted({_kind(v, inner=True) for v in values} - {None}))


def _pickled_state(obj) -> dict:
    """The attributes pickle writes for ``obj``: its class's own
    ``__getstate__`` where a ``repro`` class defines one, else the instance
    dict and every slot that is set."""
    getstate = getattr(type(obj), "__getstate__", None)
    if getattr(getstate, "__module__", "").partition(".")[0] == "repro":
        return getstate(obj)
    state = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                state[slot] = getattr(obj, slot)
    return state


def graph_layout(*roots) -> Layout:
    """The layout of every ``repro`` class reachable from ``roots``."""
    layout: Layout = {}
    seen: Dict[int, object] = {}  # keeps transient state values alive
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Enum, type)):
            continue
        seen[id(obj)] = obj
        if _is_repro(type(obj)):
            attrs = layout.setdefault(_class_name(type(obj)), {})
            for name, value in _pickled_state(obj).items():
                attrs.setdefault(name, set()).add(_kind(value))
                stack.append(value)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, CONTAINERS):
            stack.extend(obj)
        elif isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
    return layout


def mid_run(vectorized: bool, policy=None) -> Simulator:
    """A simulator stopped by an injected crash at :data:`MID_RUN_EVENT`."""
    sim = build_sim(
        vectorized=vectorized, crash_at_event=MID_RUN_EVENT, policy=policy
    )
    with pytest.raises(SimulatedCrash):
        sim.run()
    return sim


def _merged(kinds: Set[Optional[str]]) -> str:
    """One attribute's kinds across instances: ``None`` folded out, and an
    empty container folded into the same container seen with elements."""
    kinds = kinds - {None}
    shown = {k for k in kinds if not any(o.startswith(k + "[") for o in kinds)}
    return " | ".join(sorted(shown)) or "None"


def listing(layouts: Dict[str, Layout]) -> dict:
    """Per engine, ``class -> attribute -> kinds`` as plain sorted data."""
    return {
        engine: {
            cls: {name: _merged(kinds) for name, kinds in sorted(attrs.items())}
            for cls, attrs in sorted(layout.items())
        }
        for engine, layout in layouts.items()
    }


def current_listing() -> dict:
    """Both engines, each walked under Venn (``build_sim``'s default,
    Recording-wrapped) and a seeded random matcher."""
    return listing({
        engine: graph_layout(
            mid_run(engine == "fleet"),
            mid_run(engine == "fleet", make_policy("random", seed=5)),
        )
        for engine in ENGINES
    })


def layout_diff(old: dict, new: dict) -> List[str]:
    """One line per class added or removed and per attribute that moved."""
    lines = []
    for engine in ENGINES:
        before, after = old.get(engine, {}), new.get(engine, {})
        for cls in sorted(before.keys() | after.keys()):
            if cls not in after:
                lines.append(f"{engine}: - {cls}")
            elif cls not in before:
                lines.append(f"{engine}: + {cls}")
            else:
                for name in sorted(before[cls].keys() | after[cls].keys()):
                    was = before[cls].get(name, "(absent)")
                    now = after[cls].get(name, "(absent)")
                    if was != now:
                        lines.append(f"{engine}: {cls}.{name}: {was} -> {now}")
    return lines


REPIN = "re-pin with `PYTHONPATH=src python -m tests.resilience.test_snapshot_layout`"


def bump_rule_broken(pinned_format: int, moved: List[str]) -> Optional[str]:
    """Why the current layout may not be pinned under the current version:
    the layout moved and the version did not, or the other way round."""
    if pinned_format == SNAPSHOT_FORMAT_VERSION and moved:
        return (
            "the pickled layout moved but SNAPSHOT_FORMAT_VERSION is still "
            f"{SNAPSHOT_FORMAT_VERSION}: bump it, then {REPIN}\n"
            + "\n".join(moved)
        )
    if pinned_format != SNAPSHOT_FORMAT_VERSION and not moved:
        return (
            f"SNAPSHOT_FORMAT_VERSION moved from {pinned_format} to "
            f"{SNAPSHOT_FORMAT_VERSION} but the pickled layout did not"
        )
    return None


def test_layout_is_pinned_to_the_format_version():
    pinned = json.loads(LAYOUT_FILE.read_text())
    moved = layout_diff(pinned["layout"], current_listing())
    broken = bump_rule_broken(pinned["format"], moved)
    if broken:
        pytest.fail(broken)
    if moved:
        pytest.fail(
            f"format {SNAPSHOT_FORMAT_VERSION} is not pinned yet: {REPIN}\n"
            + "\n".join(moved)
        )


# ---------------------------------------------------------------------- #
# Past format changes, replayed as edits of a current graph: each must
# move the listing, or the pin above would have let it through.
# ---------------------------------------------------------------------- #
def _stream_event_columns(sim):
    """Format 5's stream: five event columns, no code column."""
    stream = sim._stream
    code = stream.sa_code
    stream.__dict__.update(
        sa_seq=code.astype(np.int64) + stream.seq0,
        sa_send=stream.se_end[code >> 1],
        sa_ci=(code & 1) == 0,
    )
    for name in ("sa_code", "se_end", "seq0"):
        delattr(stream, name)


def _int64_slot_column(sim):
    """Format 5's ``sa_slot`` column: int64 where it is int32."""
    sim._stream.sa_slot = sim._stream.sa_slot.astype(np.int64)


def _fault_plan(sim):
    """Format 6: a ``fault_plan`` config field and a fault injector."""
    config = vars(sim.config)
    config["fault_plan"] = config.pop("crash_at_event")
    sim.__dict__["_injector"] = None


def _round_callback_slot(sim):
    """Format 7: the round-callback slot, always ``None`` in a payload."""
    sim.__dict__["_round_callback"] = None


def _profile_list(sim):
    """Format 8: the population as a list of ``DeviceProfile`` objects."""
    profiles = list(sim._device_profiles)
    sim._device_profiles = sim._vec.profiles = profiles


def _no_idle_set(sim):
    """Format 9: the reference engine without its idle-id set."""
    del sim._idle


def _matcher_history_on_a_profile(sim):
    """Format 10: a matcher's history lived on a profile object."""
    for matcher in sim.policy._inner._matchers.values():
        for name in ("_capacities", "_response_times", "_sched_delays",
                     "_collect_times", "fit"):
            delattr(matcher, name)
        matcher.profile = None


def _unbound_policy(sim):
    """Format 11: no fleet binding on the policy."""
    for name in ("fleet", "sig_ids", "sig_table"):
        del sim.policy._inner.__dict__[name]


def _test_only_knobs(sim):
    """Format 12: Venn's and the latency model's test-only knobs."""
    sim.policy._inner.__dict__.update(
        enable_reallocation=False, demand_mode="round", plan_rebuilds=3
    )
    vars(sim.config.latency)["duration_scale"] = 2.0


def _one_simulator_class(sim):
    """Format 14: one ``Simulator`` class for both engines."""
    sim.__class__ = Simulator
    sim.__dict__.update(_fleet=False, _shard=None, _vec=None)


def _six_wide_heap_row(sim):
    """Format 15: a job id in every response-heap row."""
    heap = sim._stream.heap
    assert heap  # responses are in flight
    heap[:] = [
        (t, seq, slot, rid, sim._requests[rid].job_id, ok)
        for t, seq, slot, rid, ok in heap
    ]


def _responses_with_times(sim):
    """Format 16: a report time per responding device."""
    assert any(r.responses for r in sim._requests.values())
    for request in sim._requests.values():
        request.responses = dict.fromkeys(request.responses, sim.now)


PAST_LAYOUTS = [
    # (engine, edit, the class whose listing must move)
    pytest.param("fleet", _stream_event_columns, "DeviceStream",
                 id="format-5-attributes-removed-and-added"),
    pytest.param("fleet", _int64_slot_column, "DeviceStream",
                 id="format-5-column-dtype"),
    pytest.param("fleet", _fault_plan, "SimulationConfig",
                 id="format-6-attribute-renamed"),
    pytest.param("fleet", _round_callback_slot, "FleetSimulator",
                 id="format-7-attribute-added-always-none"),
    pytest.param("fleet", _profile_list, "VectorDeviceState",
                 id="format-8-class-to-container"),
    pytest.param("reference", _no_idle_set, "ReferenceSimulator",
                 id="format-9-attribute-removed"),
    pytest.param("fleet", _matcher_history_on_a_profile, "TierMatcher",
                 id="format-10-attributes-moved"),
    pytest.param("fleet", _unbound_policy, "VennScheduler",
                 id="format-11-attributes-removed"),
    pytest.param("fleet", _test_only_knobs, "LatencyConfig",
                 id="format-12-attributes-added"),
    pytest.param("reference", _one_simulator_class, "repro.sim.engine.Simulator",
                 id="format-14-class-swapped"),
    pytest.param("fleet", _six_wide_heap_row, "DeviceStream",
                 id="format-15-heap-row-width"),
    pytest.param("fleet", _responses_with_times, "ResourceRequest",
                 id="format-16-container-type"),
]


@pytest.fixture(scope="module")
def unedited():
    """Each engine's listing under Venn, the graph every edit starts from."""
    return listing({
        engine: graph_layout(mid_run(engine == "fleet")) for engine in ENGINES
    })


@pytest.mark.parametrize("engine, edit, moved_class", PAST_LAYOUTS)
def test_each_past_layout_change_moves_the_listing(
    unedited, engine, edit, moved_class
):
    sim = mid_run(engine == "fleet")
    edit(sim)
    moved = layout_diff(
        {engine: unedited[engine]}, listing({engine: graph_layout(sim)})
    )
    assert any(moved_class in line for line in moved), moved


def main() -> int:
    current = current_listing()
    if LAYOUT_FILE.exists():
        pinned = json.loads(LAYOUT_FILE.read_text())
        broken = bump_rule_broken(
            pinned["format"], layout_diff(pinned["layout"], current)
        )
        if broken:
            print(broken)
            return 1
    LAYOUT_FILE.write_text(json.dumps(
        {"format": SNAPSHOT_FORMAT_VERSION, "layout": current}, indent=1
    ) + "\n")
    counts = ", ".join(f"{e}: {len(current[e])} classes" for e in ENGINES)
    print(f"pinned format {SNAPSHOT_FORMAT_VERSION} ({counts}) to {LAYOUT_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
