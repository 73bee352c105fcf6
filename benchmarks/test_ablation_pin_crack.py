"""Ablation — offline PIN cracking of sniffed legacy pairing.

Historical contrast for the paper's §II: before SSP, a passive sniffer
could recover the link key by brute-forcing the PIN offline (refs
[14][15]).  SSP closed that hole — and the paper shows the SSP-era key
then leaks through the HCI instead.

Shape expectation: a 4-digit numeric PIN falls in at most 10,000
E22/E21/E1 evaluations; the recovered key equals the bonded key.
"""

from __future__ import annotations

from repro.attacks.eavesdrop import AirCapture
from repro.attacks.pin_crack import (
    crack_pin,
    numeric_pins,
    transcript_from_capture,
)
from repro.attacks.scenario import WorldConfig, build_world
from repro.devices.catalog import LG_VELVET, NEXUS_5X_A8

PIN = "8341"


def sniff_legacy_pairing(seed: int = 400):
    world = build_world(WorldConfig(seed=seed))
    m = world.add_device("M", LG_VELVET)
    c = world.add_device("C", NEXUS_5X_A8)
    m.host.ssp_enabled = False
    c.host.ssp_enabled = False
    m.user.pin_code = PIN
    c.user.pin_code = PIN
    m.power_on()
    c.power_on()
    world.run_for(0.5)
    capture = AirCapture().attach(world.medium)
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(20.0)
    assert operation.success
    truth = m.host.security.bond_for(c.bd_addr).link_key
    return transcript_from_capture(capture, "M", m.bd_addr, c.bd_addr), truth


def test_ablation_pin_crack(save_artifact):
    transcript, truth = sniff_legacy_pairing()

    result = crack_pin(transcript, numeric_pins(4))

    assert result is not None
    assert result.pin == PIN.encode()
    assert result.link_key == truth
    assert result.candidates_tried <= 10_000

    save_artifact(
        "ablation_pin_crack.txt",
        "Offline PIN crack of a sniffed legacy pairing\n"
        f"  PIN space        : 4-digit numeric (10,000 candidates)\n"
        f"  candidates tried : {result.candidates_tried}\n"
        f"  recovered PIN    : {result.pin.decode()}\n"
        f"  recovered key    : {result.link_key}\n"
        f"  matches bond     : {result.link_key == truth}",
    )


def test_pin_candidate_step_yields_key():
    """One E22+E21+E1 evaluation (the search's unit step) yields a key."""
    from repro.attacks.pin_crack import candidate_key

    transcript, _ = sniff_legacy_pairing(seed=401)
    key = candidate_key(transcript, b"0000")
    assert len(key.value) == 16
