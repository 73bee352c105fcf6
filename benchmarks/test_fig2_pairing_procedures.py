"""Fig. 2 — pairing and authentication procedures.

Regenerates both halves of the figure as HCI flows: (a) the full SSP
transaction for non-bonded devices; (b) the LMP-authentication-only
flow for bonded devices.
"""

from __future__ import annotations

from repro.attacks.scenario import WorldConfig, build_world
from repro.devices.catalog import LG_VELVET, NEXUS_5X_A8
from repro.snoop.hcidump import HciDump, render_dump_table


def _paired_world(seed: int):
    world = build_world(WorldConfig(seed=seed))
    m = world.add_device("M", LG_VELVET)
    c = world.add_device("C", NEXUS_5X_A8)
    m.power_on()
    c.power_on()
    world.run_for(0.5)
    c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
    return world, m, c


def fresh_pairing(seed: int = 42):
    world, m, c = _paired_world(seed)
    dump = HciDump().attach(m.transport)
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(20.0)
    assert operation.success
    return dump


def bonded_reauth(seed: int = 42):
    world, m, c = _paired_world(seed)
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(20.0)
    assert operation.success
    m.host.gap.disconnect(c.bd_addr)
    world.run_for(2.0)
    dump = HciDump().attach(m.transport)
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(10.0)
    assert operation.success
    return dump


def test_fig2a_fresh_ssp_pairing(save_artifact):
    dump = fresh_pairing()
    table = render_dump_table(dump.entries())
    save_artifact("fig2a_ssp_pairing_flow.txt", table)
    names = [entry.packet.display_name for entry in dump.entries()]
    for required in (
        "HCI_Create_Connection",
        "HCI_Authentication_Requested",
        "HCI_Link_Key_Request_Negative_Reply",
        "HCI_IO_Capability_Request",
        "HCI_User_Confirmation_Request",
        "HCI_Simple_Pairing_Complete",
        "HCI_Link_Key_Notification",
        "HCI_Authentication_Complete",
    ):
        assert required in names, required


def test_fig2b_bonded_lmp_only(save_artifact):
    dump = bonded_reauth()
    table = render_dump_table(dump.entries())
    save_artifact("fig2b_bonded_reauth_flow.txt", table)
    names = [entry.packet.display_name for entry in dump.entries()]
    assert "HCI_Link_Key_Request_Reply" in names
    assert "HCI_IO_Capability_Request" not in names  # SSP is omitted
    assert "HCI_Authentication_Complete" in names
