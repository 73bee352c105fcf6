"""Fig. 12 — HCI dump logs for normal pairing vs page-blocked pairing.

Regenerates both frame tables exactly as the paper presents them (Fra
| Type | Opcode Command | Event | Handle | Status) and asserts the
distinguishing invariant: under the attack, the victim is the pairing
initiator (HCI_Authentication_Requested command) *and* the connection
responder (HCI_Connection_Request event) simultaneously.
"""

from __future__ import annotations

from repro.attacks.page_blocking import PageBlockingAttack
from repro.attacks.scenario import WorldConfig, build_world, standard_cast
from repro.snoop.hcidump import HciDump, render_dump_table


def capture_normal(seed: int = 70):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    dump = HciDump().attach(m.transport)
    c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(20.0)
    assert operation.success
    return dump


def capture_blocked(seed: int = 71):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    report = PageBlockingAttack(world, a, c, m).run(run_discovery=False)
    assert report.success and report.paired
    return report.m_dump


def test_fig12_hci_flows(save_artifact):
    normal, blocked = capture_normal(), capture_blocked()
    normal_table = render_dump_table(normal.entries(), max_rows=14)
    blocked_table = render_dump_table(blocked.entries(), max_rows=14)
    save_artifact(
        "fig12_hci_flows.txt",
        "(a) HCI dump for normal pairing\n"
        + normal_table
        + "\n\n(b) HCI dump for pairing under page blocking attack\n"
        + blocked_table,
    )

    normal_names = [e.packet.display_name for e in normal.entries()]
    blocked_names = [e.packet.display_name for e in blocked.entries()]

    # Fig. 12a: M created the connection, then got a Link_Key_Request
    # answered negatively, then the IO capability exchange began.
    assert normal_names.index("HCI_Create_Connection") < normal_names.index(
        "HCI_Authentication_Requested"
    )
    assert normal_names.index("HCI_Link_Key_Request") < normal_names.index(
        "HCI_Link_Key_Request_Negative_Reply"
    )
    assert "HCI_IO_Capability_Request" in normal_names
    assert "HCI_Connection_Request" not in normal_names

    # Fig. 12b: the page-blocked flow starts with an *incoming*
    # connection, yet M still issues Authentication_Requested.
    assert blocked_names[0] == "HCI_Connection_Request"
    assert "HCI_Accept_Connection_Request" in blocked_names
    assert "HCI_Authentication_Requested" in blocked_names
    assert "HCI_Create_Connection" not in blocked_names
    # The paper's detection signature, in one predicate:
    assert blocked_names.index("HCI_Connection_Request") < blocked_names.index(
        "HCI_Authentication_Requested"
    )
