"""Fig. 6 — normal pairing vs pairing under page blocking.

Regenerates both message sequences (as the victim M observes them) and
checks the structural difference the figure shows: in the attack, the
connection is inbound (attacker-initiated) and the pairing request is
sent down the *existing* link without any new page.
"""

from __future__ import annotations

from repro.attacks.page_blocking import PageBlockingAttack
from repro.attacks.scenario import WorldConfig, build_world, standard_cast
from repro.snoop.hcidump import HciDump, render_dump_table


def normal_pairing(seed: int = 50):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    dump = HciDump().attach(m.transport)
    c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
    discovery = m.host.gap.start_discovery(inquiry_length=2)
    world.run_for(5.0)
    assert discovery.success
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(20.0)
    assert operation.success
    return dump


def blocked_pairing(seed: int = 51):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    attack = PageBlockingAttack(world, a, c, m)
    report = attack.run()
    assert report.success and report.paired
    return report


def test_fig6a_normal_pairing_sequence(save_artifact):
    dump = normal_pairing()
    save_artifact(
        "fig6a_normal_pairing.txt", render_dump_table(dump.entries())
    )
    names = [entry.packet.display_name for entry in dump.entries()]
    # Fig. 6a: M discovers, M pages, M pairs.
    assert names.index("HCI_Inquiry") < names.index("HCI_Create_Connection")
    assert names.index("HCI_Create_Connection") < names.index(
        "HCI_Authentication_Requested"
    )
    assert "HCI_Connection_Request" not in names  # nobody paged M


def test_fig6b_page_blocked_sequence(save_artifact):
    report = blocked_pairing()
    save_artifact(
        "fig6b_page_blocked_pairing.txt",
        render_dump_table(report.m_dump.entries()),
    )
    flow = report.m_flow
    # Fig. 6b: inbound connection first, then the victim's own pairing
    # rides the existing link — no Create_Connection ever happens.
    assert flow.index("HCI_Connection_Request") < flow.index("HCI_Inquiry")
    assert "HCI_Create_Connection" not in flow
    assert flow.index("HCI_Inquiry") < flow.index("HCI_Authentication_Requested")
