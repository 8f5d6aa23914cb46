"""Registry of named scenarios.

The registry is the lookup layer between scenario *names* (what the sweep
CLI, JSONL rows and docs speak) and :class:`~repro.scenarios.spec.ScenarioSpec`
objects.  Sweep workers resolve scenarios by name inside the subprocess, so
only strings ever cross the process boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .spec import ScenarioSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry (also usable as a plain function call).

    Registering a name twice is an error unless ``overwrite=True`` — silent
    shadowing of a built-in scenario would make sweep rows ambiguous.
    """
    if not overwrite and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scenario(name: str) -> None:
    """Remove a scenario (mainly for tests registering temporary specs)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name, with a helpful error for typos."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def scenario_names(tag: Optional[str] = None) -> List[str]:
    """Sorted registered names, optionally filtered by tag."""
    if tag is None:
        return sorted(_REGISTRY)
    return sorted(name for name, s in _REGISTRY.items() if tag in s.tags)


__all__ = [
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "unregister_scenario",
]
