"""Fig. 11 — link key recovered from a USB sniff equals the key in the
peer's HCI dump.

Reproduces §VI-B1's Windows experiment: C is a Windows 10 PC with a
QSENN CSR V4.0 USB dongle; the attacker sniffs the USB bus with a free
analyzer, converts the binary stream to hex (the authors' BinaryToHex
port) and greps for '0b 04 16'.  The recovered key is compared against
the key logged on the Android peer's HCI dump — they must be
identical, which is the figure's cross-validation.
"""

from __future__ import annotations

from repro.attacks.attacker import Attacker
from repro.attacks.scenario import WorldConfig, bond, build_world, standard_cast
from repro.devices.catalog import WINDOWS_MS_DRIVER
from repro.snoop.extractor import keys_by_peer
from repro.snoop.usb_extract import bin2hex, extract_link_keys_from_usb


def run_cross_validation(seed: int = 65):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world, c_spec=WINDOWS_MS_DRIVER)
    bond(world, c, m)

    # M's own HCI dump (the Android side of Fig. 11b).
    m_dump = m.enable_hci_snoop()

    # The USB analyzer on C's dongle (Fig. 11a).
    sniffer = c.attach_usb_sniffer()

    # Drive a bonded re-authentication so both sides serve their keys.
    operation = c.host.gap.pair(m.bd_addr)
    world.run_for(10.0)
    assert operation.success

    usb_findings = extract_link_keys_from_usb(sniffer)
    usb_keys = {f.link_key for f in usb_findings if f.peer == m.bd_addr}
    dump_key = keys_by_peer(m.pull_bugreport()).get(c.bd_addr)
    hex_excerpt = bin2hex(sniffer.raw_stream())[:600]
    return usb_keys, dump_key, hex_excerpt


def test_fig11_usb_sniff_matches_peer_dump(save_artifact):
    usb_keys, dump_key, hex_excerpt = run_cross_validation()
    assert dump_key is not None
    assert usb_keys == {dump_key}, (usb_keys, dump_key)

    save_artifact(
        "fig11_usb_sniff.txt",
        "Fig. 11: link keys in HCI data from USB sniff and HCI dump\n\n"
        f"Key from USB sniff on C : {sorted(k.hex() for k in usb_keys)[0]}\n"
        f"Key from HCI dump on M  : {dump_key.hex()}\n"
        "MATCH: the extraction via the physical interface is correct.\n\n"
        "Converted hex stream excerpt (BinaryToHex output):\n"
        + hex_excerpt,
    )
