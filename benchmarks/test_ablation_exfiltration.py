"""Ablation — the full kill chain, end to end.

Paper §III's goal state: the attacker mines M's phone book and
messages.  This benchmark runs the composite attack — legitimate
bond, key extraction from the accessory, impersonation, PBAP + MAP
exfiltration — and asserts the victim saw zero pairing UI throughout.
"""

from __future__ import annotations

from repro.attacks.exfiltration import exfiltrate
from repro.attacks.link_key_extraction import LinkKeyExtractionAttack
from repro.attacks.scenario import WorldConfig, bond, build_world, standard_cast
from repro.host.map_profile import Message
from repro.host.pbap import Contact

CONTACTS = [Contact(f"Contact {i:02d}", f"+1-555-{i:04d}") for i in range(25)]
MESSAGES = [Message(f"Contact {i:02d}", f"message body {i}") for i in range(25)]


def full_kill_chain(seed: int = 600):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    m.host.pbap.load_phonebook(CONTACTS)
    m.host.map.load_messages(MESSAGES)
    bond(world, c, m)

    extraction = LinkKeyExtractionAttack(world, a, c, m).run(validate=False)
    assert extraction.extraction_success

    world.set_in_range(c, m, False)
    a.host.drop_link_key_requests = False
    c.host.gap.set_scan_mode(connectable=False, discoverable=False)
    report = exfiltrate(
        world,
        a,
        m,
        trusted_c_addr=c.bd_addr,
        trusted_c_cod=c.controller.class_of_device,
        trusted_c_name=c.controller.local_name,
        link_key=extraction.extracted_key,
    )
    return report


def test_ablation_full_kill_chain(save_artifact):
    report = full_kill_chain()
    assert report.success, report.notes
    assert len(report.phonebook) == len(CONTACTS)
    assert len(report.messages) == len(MESSAGES)
    assert report.silent

    save_artifact(
        "ablation_exfiltration.txt",
        "Full kill chain: bond → extract → impersonate → exfiltrate\n"
        f"  phonebook entries stolen : {len(report.phonebook)}\n"
        f"  messages stolen          : {len(report.messages)}\n"
        f"  pairing popups on victim : {report.pairing_popups_on_m}\n"
        f"  first stolen contact     : {report.phonebook[0].name} "
        f"({report.phonebook[0].phone})",
    )
