"""Declarative scenario specifications.

A :class:`ScenarioSpec` bundles everything that makes one evaluation scenario
different from the preset baseline: overrides for the trace generators
(availability, capacity), the workload shape, the simulation engine, plus
optional *transforms* that post-process the generated workload or
availability trace (e.g. compressing job arrivals into a flash crowd, or
carving correlated dropout storms out of the availability sessions).

Scenarios **compose** the existing generators in :mod:`repro.traces` rather
than duplicating them: a spec is applied to a base
:class:`~repro.experiments.config.ExperimentConfig` (typically one of the
``quick``/``default``/``large`` presets), producing a derived config whose
nested generator configs carry the scenario's knobs; transforms then reshape
the generated artefacts deterministically using the config's dedicated
``scenario`` RNG stream.

The module deliberately knows nothing about *which* scenarios exist — the
registry (:mod:`repro.scenarios.registry`) and the built-in library
(:mod:`repro.scenarios.library`) layer on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from ..experiments.config import ExperimentConfig
from ..experiments.environment import Environment, build_environment
from ..traces.device_trace import DeviceAvailabilityTrace
from ..traces.workloads import Workload

#: Transforms see the generated artefact, the scenario RNG stream and the
#: resolved experiment config (for horizon-relative knobs).
WorkloadTransform = Callable[
    [Workload, np.random.Generator, ExperimentConfig], Workload
]
AvailabilityTransform = Callable[
    [DeviceAvailabilityTrace, np.random.Generator, ExperimentConfig],
    DeviceAvailabilityTrace,
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named evaluation scenario, declaratively.

    All override mappings hold keyword arguments for ``dataclasses.replace``
    on the corresponding nested config (unknown keys therefore fail fast).
    ``num_devices`` / ``num_jobs`` / ``horizon`` override the top-level
    experiment knobs; ``__post_init__`` of the config keeps the nested
    configs consistent with them — which is also why nested overrides of
    the keys it owns (``workload.num_jobs``, ``availability.horizon``,
    ``simulation.horizon``/``seed``) are rejected at construction: they
    would be silently clobbered otherwise.
    """

    name: str
    description: str = ""
    #: Top-level experiment knob overrides (``None`` keeps the base value).
    num_devices: Optional[int] = None
    num_jobs: Optional[int] = None
    horizon: Optional[float] = None
    #: ``dataclasses.replace`` overrides for the nested configs.
    workload: Mapping[str, object] = field(default_factory=dict)
    availability: Mapping[str, object] = field(default_factory=dict)
    capacity: Mapping[str, object] = field(default_factory=dict)
    simulation: Mapping[str, object] = field(default_factory=dict)
    #: Overrides for ``SimulationConfig.latency`` (kept separate so a
    #: scenario can tweak the latency model without restating the rest).
    latency: Mapping[str, object] = field(default_factory=dict)
    #: Post-generation transforms (see module docstring).  Must be
    #: picklable — module-level functions or ``functools.partial`` of them —
    #: so sweep workers can rebuild scenarios by name in subprocesses.
    workload_transform: Optional[WorkloadTransform] = None
    availability_transform: Optional[AvailabilityTransform] = None
    #: Extra keyword arguments per policy name, merged into ``make_policy``
    #: calls (e.g. ``{"venn": {"num_tiers": 6}}`` for a tiering scenario).
    policy_kwargs: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: Overrides for the federated co-simulation layer, applied to
    #: :class:`~repro.cosim.CoSimConfig` via ``with_overrides`` when the
    #: scenario runs in co-sim mode (``sweep --cosim``); the special
    #: ``"dataset"`` key nests :class:`~repro.fl.datasets.
    #: FederatedDataConfig` overrides (e.g. a smaller ``dirichlet_alpha``
    #: for harsher non-IID-ness).  Plain scheduling runs ignore it.
    cosim: Mapping[str, object] = field(default_factory=dict)
    #: Free-form labels ("paper", "beyond-paper", ...) used for selection.
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        for knob, value in (
            ("num_devices", self.num_devices),
            ("num_jobs", self.num_jobs),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{knob} override must be positive")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon override must be positive")
        self._check_owned_keys()

    # ------------------------------------------------------------------ #
    # Config derivation
    # ------------------------------------------------------------------ #
    #: Nested-config keys that ``ExperimentConfig.__post_init__`` re-derives
    #: from the top-level knobs — an override there would be silently
    #: clobbered, so ``apply`` rejects them with a pointer to the right knob.
    _OWNED_KEYS = {
        "workload": {"num_jobs": "the ScenarioSpec.num_jobs field"},
        "availability": {"horizon": "the ScenarioSpec.horizon field"},
        "simulation": {
            "horizon": "the ScenarioSpec.horizon field",
            "seed": "the experiment root seed (derived per sweep cell)",
        },
    }

    def _check_owned_keys(self) -> None:
        for section, owned in self._OWNED_KEYS.items():
            overrides = getattr(self, section)
            for key, owner in owned.items():
                if key in overrides:
                    raise ValueError(
                        f"scenario {self.name!r}: {section}[{key!r}] is "
                        f"derived from {owner} and would be silently "
                        f"overwritten — set it there instead"
                    )

    def apply(self, base: ExperimentConfig) -> ExperimentConfig:
        """The base config with this scenario's overrides folded in."""
        top: dict = {"name": f"{base.name}/{self.name}"}
        if self.num_devices is not None:
            top["num_devices"] = self.num_devices
        if self.num_jobs is not None:
            top["num_jobs"] = self.num_jobs
        if self.horizon is not None:
            top["horizon"] = self.horizon
        simulation = base.simulation
        if self.latency:
            simulation = replace(
                simulation, latency=replace(simulation.latency, **dict(self.latency))
            )
        if self.simulation:
            simulation = replace(simulation, **dict(self.simulation))
        return replace(
            base,
            workload=replace(base.workload, **dict(self.workload)),
            availability=replace(base.availability, **dict(self.availability)),
            capacity=replace(base.capacity, **dict(self.capacity)),
            simulation=simulation,
            **top,
        )

    # ------------------------------------------------------------------ #
    # Environment building
    # ------------------------------------------------------------------ #
    def build_environment(self, base: ExperimentConfig) -> Environment:
        """Materialise the scenario against ``base``.

        Generation uses the usual per-component seed streams; both transforms
        share the config's dedicated ``scenario`` stream, drawn in a fixed
        order (availability first, then workload) so one root seed pins the
        whole scenario bit-for-bit.
        """
        config = self.apply(base)
        env = build_environment(config)
        if self.availability_transform is None and self.workload_transform is None:
            return env
        rng = np.random.default_rng(config.seed_sequence("scenario"))
        availability = env.availability
        workload = env.workload
        if self.availability_transform is not None:
            availability = self.availability_transform(availability, rng, config)
        if self.workload_transform is not None:
            workload = self.workload_transform(workload, rng, config)
        return Environment(
            config=config,
            devices=env.devices,
            availability=availability,
            workload=workload,
        )


def validate_environment(env: Environment) -> None:
    """Schema validation of a materialised environment.

    Raises ``AssertionError`` with a descriptive message on the first
    violation.  Used by the property tests (every registered scenario must
    produce a valid environment for arbitrary configs) and cheap enough to
    run after any custom transform.
    """
    config = env.config
    device_ids = {d.device_id for d in env.devices}
    assert len(device_ids) == len(env.devices), "duplicate device ids"
    assert len(env.devices) == config.num_devices, "device count mismatch"
    horizon = config.horizon
    trace = env.availability
    unknown = ~np.isin(trace.device_ids, list(device_ids))
    assert not unknown.any(), (
        f"session for unknown device {trace.device_ids[unknown.argmax()]}"
    )
    assert (
        (0.0 <= trace.starts) & (trace.starts < trace.ends)
    ).all(), "session bounds out of order"
    assert (trace.ends <= horizon + 1e-9).all(), "session extends past the horizon"
    assert env.availability.horizon == horizon, "trace horizon mismatch"
    job_ids = set()
    for job in env.workload.jobs:
        assert job.job_id not in job_ids, f"duplicate job id {job.job_id}"
        job_ids.add(job.job_id)
        assert job.demand_per_round > 0, "non-positive demand"
        assert job.num_rounds > 0, "non-positive round count"
        assert job.arrival_time >= 0.0, "negative arrival time"
        assert job.round_deadline > 0.0, "non-positive deadline"
        assert 0.0 < job.min_report_fraction <= 1.0, "bad report fraction"
        assert env.workload.categories.get(job.job_id), (
            f"job {job.job_id} missing category"
        )
    assert len(env.workload.jobs) == config.num_jobs, "job count mismatch"


__all__ = [
    "AvailabilityTransform",
    "ScenarioSpec",
    "WorkloadTransform",
    "validate_environment",
]
