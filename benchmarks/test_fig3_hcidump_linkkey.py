"""Fig. 3 — a link key inside an HCI packet and its HCI dump.

Bonds two devices, re-authenticates, captures the victim's btsnoop
log, and regenerates the figure's content: the raw packet bytes of the
HCI_Link_Key_Request_Reply (with the key visible) and the parsed dump
view, and checks that the extractor finds the key in the capture.
"""

from __future__ import annotations

from repro.attacks.scenario import WorldConfig, bond, build_world, standard_cast
from repro.hci.commands import LinkKeyRequestReply
from repro.snoop.extractor import extract_link_keys
from repro.snoop.hcidump import HciDump, render_dump_table


def build_capture(seed: int = 5):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    bond(world, c, m)
    dump = HciDump().attach(c.transport)
    operation = c.host.gap.pair(m.bd_addr)
    world.run_for(10.0)
    assert operation.success
    expected = c.host.security.bond_for(m.bd_addr).link_key
    return dump.to_btsnoop_bytes(), dump, expected


def test_fig3_link_key_in_hci_dump(save_artifact):
    capture, dump, expected = build_capture()

    findings = extract_link_keys(capture)

    hits = [f for f in findings if f.link_key == expected]
    assert hits, "bonded key not found in the HCI dump"

    reply_entries = [
        entry
        for entry in dump.entries()
        if isinstance(entry.packet, LinkKeyRequestReply)
    ]
    assert reply_entries
    raw = reply_entries[0].packet.to_h4_bytes()

    lines = [
        "Fig. 3: a link key in an HCI packet and its HCI dump",
        "",
        "Raw HCI_Link_Key_Request_Reply packet (H4 framing):",
        "  " + raw.hex(" "),
        "  ^^ '01' = command, '0b 04' = opcode, '16' = length,",
        "     6 bytes peer BD_ADDR, 16 bytes plaintext link key",
        "",
        f"Bonded link key (host database): {expected.hex()}",
        f"Extracted from dump:             {hits[0].link_key.hex()}",
        "",
        "Parsed dump view:",
        render_dump_table(dump.entries(), max_rows=20),
    ]
    save_artifact("fig3_linkkey_in_dump.txt", "\n".join(lines))

    # The figure's claim: the on-disk log contains the key verbatim.
    assert expected.to_hci_bytes() in capture
