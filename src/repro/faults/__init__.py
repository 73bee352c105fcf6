"""Deterministic fault injection (``repro.faults``).

Declarative :class:`FaultPlan`\\ s target catalogued injection points
across the phy, transport, controller and host layers; an
:class:`InjectorRegistry` wires them into a live world with per-spec
seeded RNG streams, so every (seed, plan) pair replays identically.

Typical entrypoints::

    world = build_world(WorldConfig(seed=7, fault_plan=plan))
    # or, on an already-built world:
    apply_fault_plan(world, [{"point": "phy.frame_loss",
                              "probability": 0.1}])

See :mod:`repro.faults.catalog` for the injection-point catalogue and
``docs/faults.md`` for the schema and worked examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.catalog import (
    INJECTION_POINTS,
    InjectionPoint,
    get_point,
    point_names,
)
from repro.faults.registry import TRACE_SOURCE, InjectorRegistry
from repro.faults.spec import FaultPlan, FaultPlanError, FaultSpec

if TYPE_CHECKING:
    from repro.attacks.scenario import World

__all__ = [
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectionPoint",
    "InjectorRegistry",
    "INJECTION_POINTS",
    "TRACE_SOURCE",
    "apply_fault_plan",
    "get_point",
    "point_names",
]


def apply_fault_plan(world: "World", plan) -> "InjectorRegistry":
    """Wire ``plan`` into ``world`` (idempotent registry creation).

    Accepts a :class:`FaultPlan`, a list of spec dicts/objects or a
    ``{"name": ..., "faults": [...]}`` mapping.  Creates the world's
    :class:`InjectorRegistry` on first use, attaches it to the medium
    and to every present and future device, then extends it with the
    plan's specs.  Returns the registry.
    """
    coerced = FaultPlan.coerce(plan)
    if world.faults is None:
        registry = InjectorRegistry(
            world.simulator,
            world.rng,
            world.tracer,
            metrics=world.obs.metrics,
            spans=world.obs.spans,
        )
        registry.attach_medium(world.medium)
        for role, device in world.devices.items():
            registry.on_device_added(role, device)
        world.faults = registry
    if coerced is not None:
        world.faults.extend(coerced)
    return world.faults
