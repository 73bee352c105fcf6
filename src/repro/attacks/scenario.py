"""World construction for attack scenarios.

Every experiment runs in a :class:`World`: one deterministic simulator,
one radio medium, one trace log, and the paper's three-role cast:

* **M** — the hard target holding sensitive data (a phone),
* **C** — the soft target: an accessory or PC bonded with M, easy to
  physically access and manipulate,
* **A** — the attacker's device (a rooted Nexus 5x in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.devices.catalog import (
    LG_VELVET,
    NEXUS_5X_A6,
    build_device,
)
from repro.devices.device import Device, DeviceSpec
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.phy.medium import RadioMedium
from repro.sim.eventloop import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

if TYPE_CHECKING:
    from repro.faults import InjectorRegistry
    from repro.population import Population


@dataclass
class World:
    """One simulation universe."""

    simulator: Simulator
    rng: RngRegistry
    medium: RadioMedium
    tracer: Tracer
    obs: Observability
    devices: Dict[str, Device] = field(default_factory=dict)
    #: fault-injection registry; set when a fault plan is applied
    faults: Optional["InjectorRegistry"] = None
    #: populations living in this world (appended by ``populate``)
    populations: List["Population"] = field(default_factory=list)

    def add_device(
        self, role: str, spec: DeviceSpec, bd_addr=None
    ) -> Device:
        device = build_device(
            self.simulator,
            self.medium,
            self.rng,
            spec,
            name=role,
            bd_addr=bd_addr,
            tracer=self.tracer,
            obs=self.obs,
        )
        self.devices[role] = device
        if self.faults is not None:
            self.faults.on_device_added(role, device)
        return device

    def run_for(self, seconds: float) -> None:
        self.simulator.run_for(seconds)

    def set_in_range(self, a: Device, b: Device, in_range: bool) -> None:
        self.medium.set_in_range(a.controller, b.controller, in_range)


@dataclass(frozen=True)
class WorldConfig:
    """Everything :func:`build_world` needs, in one value.

    A config travels whole through campaign specs, worker processes and
    cache keys, and grows fields without breaking every callsite.

    ``registry`` defaults to the process-wide metrics registry so that
    counters aggregate across trial loops; pass an isolated
    :class:`MetricsRegistry` for per-run deterministic snapshots.
    ``max_trace_records`` bounds the shared tracer (ring-buffer mode)
    for multi-hundred-trial campaign runs.
    """

    seed: int = 0
    registry: Optional[MetricsRegistry] = None
    max_trace_records: Optional[int] = None
    #: declarative fault plan (FaultPlan, spec-dict list or plan
    #: mapping — anything ``FaultPlan.coerce`` accepts); wired into
    #: the world by :func:`repro.faults.apply_fault_plan`
    fault_plan: Optional[Any] = None
    #: device population built at world-construction time (a
    #: PopulationSpec, preset name, device count or JSON mapping —
    #: anything ``PopulationSpec.coerce`` accepts); applied by
    #: :func:`repro.population.populate` after the fault plan, so
    #: ambient devices are fault-visible too
    population: Optional[Any] = None


def build_world(config: Optional[WorldConfig] = None) -> World:
    """An empty world with a seeded RNG: ``build_world(WorldConfig(seed=42))``."""
    if config is None:
        config = WorldConfig()
    simulator = Simulator()
    rng = RngRegistry(config.seed)
    tracer = Tracer(max_records=config.max_trace_records)
    obs = Observability(
        clock=lambda: simulator.now, registry=config.registry, tracer=tracer
    )
    simulator.metrics = obs.metrics
    world = World(
        simulator=simulator,
        rng=rng,
        medium=RadioMedium(
            simulator, rng, tracer=tracer, metrics=obs.metrics
        ),
        tracer=tracer,
        obs=obs,
    )
    if config.fault_plan is not None:
        from repro.faults import apply_fault_plan

        apply_fault_plan(world, config.fault_plan)
    if config.population is not None:
        from repro.population import populate

        populate(world, config.population)
    return world


def standard_cast(
    world: World,
    m_spec: DeviceSpec = LG_VELVET,
    c_spec: Optional[DeviceSpec] = None,
    a_spec: DeviceSpec = NEXUS_5X_A6,
):
    """Create the M / C / A trio and power everything on.

    The cast is itself a 3-member population (the ``standard-cast``
    preset parameterised with these specs), so single-attack worlds
    and fleet-scale ambient worlds share one construction path — same
    add/power/settle order, same RNG streams, byte-identical results.
    """
    from repro.devices.catalog import NEXUS_5X_A8
    from repro.population import CastMember, PopulationSpec, populate

    population = populate(
        world,
        PopulationSpec(
            name="standard-cast",
            members=(
                # Live DeviceSpec objects, not keys: callers hand in
                # non-catalog variants (hardened secure-HCI specs).
                CastMember(role="M", spec=m_spec),
                CastMember(role="C", spec=c_spec or NEXUS_5X_A8),
                CastMember(
                    role="A",
                    spec=a_spec,
                    connectable=False,
                    discoverable=False,
                ),
            ),
        ),
    )
    return population.role("M"), population.role("C"), population.role("A")


def bond(world: World, initiator: Device, responder: Device) -> None:
    """Legitimately pair two devices (both users consenting).

    This is the pre-state of the link key extraction attack: C and M
    already share a bonded link key from an ordinary pairing.
    """
    responder.user.note_pairing_initiated(
        initiator.bd_addr, world.simulator.now
    )
    operation = initiator.host.gap.pair(responder.bd_addr)
    world.run_for(20.0)
    if not operation.success:
        raise RuntimeError(
            f"setup pairing {initiator.name}->{responder.name} failed: "
            f"status={operation.status}"
        )
    initiator.host.gap.disconnect(responder.bd_addr)
    world.run_for(2.0)
