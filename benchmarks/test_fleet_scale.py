"""Fleet-size checks: many devices, one simulator.

Discovery over N devices finds all of them, N sequential pairings all
bond, and a hub connected to six peers carries sustained SDP traffic.
Wall-clock speed is measured by ``bench/run.py``, not here.
"""

from __future__ import annotations

import pytest

from repro.attacks.scenario import WorldConfig, build_world
from repro.devices.catalog import LG_VELVET, NEXUS_5X_A8


def _fleet(world, count: int):
    hub = world.add_device("hub", LG_VELVET)
    peers = [
        world.add_device(f"peer-{index}", NEXUS_5X_A8)
        for index in range(count)
    ]
    hub.power_on()
    for peer in peers:
        peer.power_on()
    world.run_for(0.5)
    return hub, peers


@pytest.mark.parametrize("count", [4, 16])
def test_discovery_over_n_devices(count):
    world = build_world(WorldConfig(seed=700 + count))
    hub, peers = _fleet(world, count)
    operation = hub.host.gap.start_discovery()
    world.run_for(8.0)
    assert operation.success
    assert len(operation.result) == count


@pytest.mark.parametrize("count", [2, 6])
def test_n_sequential_pairings(count):
    world = build_world(WorldConfig(seed=800 + count))
    hub, peers = _fleet(world, count)
    hub.controller.supervision_timeout_s = 600.0
    for peer in peers:
        peer.controller.supervision_timeout_s = 600.0
        peer.user.note_pairing_initiated(hub.bd_addr, world.simulator.now)
        operation = hub.host.gap.pair(peer.bd_addr)
        world.run_for(15.0)
        assert operation.success, peer.name
    assert len(hub.host.security.keys) == count


def test_busy_piconet_carries_sdp_chatter():
    """A hub connected to 6 peers runs 30 s of SDP queries to all."""
    world = build_world(WorldConfig(seed=900))
    hub, peers = _fleet(world, 6)
    for device in [hub] + peers:
        device.controller.supervision_timeout_s = 600.0
    for peer in peers:
        operation = hub.host.gap.connect(peer.bd_addr)
        world.run_for(5.0)
        assert operation.success

    chatter_until = world.simulator.now + 30.0

    def chatter():
        for peer in peers:
            hub.host.sdp.query(peer.bd_addr)
        if world.simulator.now < chatter_until:
            world.simulator.schedule(1.0, chatter)

    chatter()
    world.run_for(35.0)
    assert world.simulator.events_processed > 1000
