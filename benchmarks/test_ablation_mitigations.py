"""Ablation — both attacks re-run under the §VII mitigations.

Shape expectation: each mitigation defeats its attack and none breaks
legitimate operation.
"""

from __future__ import annotations

from repro.attacks.attacker import Attacker
from repro.attacks.page_blocking import PageBlockingAttack
from repro.attacks.scenario import WorldConfig, bond, build_world, standard_cast
from repro.core.types import BdAddr, LinkKey
from repro.hci import commands as cmd
from repro.mitigations.dump_filter import FilteredHciDump, redact_record
from repro.snoop.extractor import extract_link_keys
from repro.snoop.hcidump import HciDump

ADDR = BdAddr.parse("48:90:11:22:33:44")
KEY = LinkKey.parse("71a70981f30d6af9e20adee8aafe3264")


def extraction_with_filtered_dump(seed: int = 200):
    """Run the extraction scenario but with the filtering dump module
    installed on C (the mitigation-deployed world)."""
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    bond(world, c, m)
    truth = c.bonded_key_for(m.bd_addr)

    filtered = FilteredHciDump().attach(c.transport)
    attacker = Attacker(a)
    attacker.patch_drop_link_key_requests()
    attacker.spoof_device(m)
    attacker.go_connectable()
    world.set_in_range(c, m, False)
    world.run_for(0.5)
    c.host.gap.pair(m.bd_addr)
    world.run_for(12.0)

    findings = extract_link_keys(filtered.to_btsnoop_bytes())
    leaked = any(f.link_key == truth for f in findings)
    return leaked, filtered.redactions


def page_blocking_with_guard(seed: int = 201):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    m.host.security.page_blocking_guard = True
    report = PageBlockingAttack(world, a, c, m).run()
    return report, m


def legitimate_pairing_with_guard(seed: int = 202):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    m.host.security.page_blocking_guard = True
    c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(20.0)
    return operation, m


def test_mitigation_dump_filter_stops_extraction(save_artifact):
    leaked, redactions = extraction_with_filtered_dump()
    save_artifact(
        "ablation_mitigation_dump_filter.txt",
        f"link key leaked through filtered dump: {leaked}\n"
        f"payloads redacted during the attack:   {redactions}",
    )
    assert not leaked
    assert redactions >= 1


def test_mitigation_guard_stops_page_blocking(save_artifact):
    report, m = page_blocking_with_guard()
    save_artifact(
        "ablation_mitigation_guard.txt",
        f"attack paired: {report.paired}\n"
        f"guard rejections on M: {m.host.security.guard_rejections}",
    )
    assert not report.paired
    assert m.host.security.guard_rejections >= 1


def test_mitigation_guard_no_false_positive():
    operation, m = legitimate_pairing_with_guard()
    assert operation.success
    assert m.host.security.guard_rejections == 0


def test_mitigation_secure_hci_device(save_artifact):
    """The §VII-A long-term fix deployed device-wide: the full USB
    extraction attack fails against a secure-HCI Windows victim."""
    import dataclasses

    from repro.attacks.link_key_extraction import LinkKeyExtractionAttack
    from repro.devices.catalog import WINDOWS_MS_DRIVER

    hardened = dataclasses.replace(
        WINDOWS_MS_DRIVER, key="windows10_secure_hci", secure_hci=True
    )

    def run():
        world = build_world(WorldConfig(seed=210))
        m, c, a = standard_cast(world, c_spec=hardened)
        bond(world, c, m)
        return LinkKeyExtractionAttack(world, a, c, m).run(validate=False)

    report = run()
    save_artifact(
        "ablation_mitigation_secure_hci.txt",
        "USB extraction vs a secure-HCI (encrypted payload) victim\n"
        f"  ground truth key : {report.ground_truth_key}\n"
        f"  'extracted' key  : {report.extracted_key} (ciphertext bytes)\n"
        f"  attack succeeded : {report.extraction_success}",
    )
    assert not report.extraction_success


def test_dump_filter_redacts_one_packet():
    """Header inspection redacts the link key from one packet."""
    raw = cmd.LinkKeyRequestReply(bd_addr=ADDR, link_key=KEY).to_h4_bytes()
    safe, redacted = redact_record(raw)
    assert redacted and safe != raw


def test_plain_dump_leaks_the_key():
    """Without the filter, the same packet leaks the key into the dump."""
    from repro.transport.base import Direction

    dump = HciDump()
    raw = cmd.LinkKeyRequestReply(bd_addr=ADDR, link_key=KEY).to_h4_bytes()
    dump.writer.append(0.0, Direction.HOST_TO_CONTROLLER, raw)
    assert [f.link_key for f in extract_link_keys(dump.to_btsnoop_bytes())] == [KEY]
