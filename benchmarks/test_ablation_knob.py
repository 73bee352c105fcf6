"""Ablation — KNOB-style low-entropy session brute force (§VIII context).

Shape expectation: a session negotiated down to 1 byte of encryption
key entropy falls in ≤256 candidates; the same session at 16 bytes is
infeasible; a peer enforcing the post-KNOB minimum (7 bytes) refuses
the negotiation outright.
"""

from __future__ import annotations

from repro.attacks.eavesdrop import AirCapture
from repro.attacks.knob import brute_force_low_entropy_session
from repro.attacks.scenario import WorldConfig, bond, build_world, standard_cast

MARKER = b"Personal Ad-hoc"


def knobbed_session(seed: int = 500, min_key_size_on_c: int = 1):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    bond(world, c, m)
    m.controller.max_encryption_key_size = 1  # the KNOB'd proposal
    c.controller.min_encryption_key_size = min_key_size_on_c
    capture = AirCapture().attach(world.medium)
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(10.0)
    assert operation.success
    encryption = m.host.gap.enable_encryption(c.bd_addr)
    world.run_for(2.0)
    m.host.sdp.query(c.bd_addr)
    world.run_for(5.0)
    return world, m, c, capture, encryption


def test_ablation_knob_brute_force(save_artifact):
    world, m, c, capture, encryption = knobbed_session()
    assert encryption.success

    result = brute_force_low_entropy_session(
        capture,
        m.bd_addr,
        m.name,
        1,
        plaintext_predicate=lambda ps: any(MARKER in p for p in ps),
    )
    assert result is not None
    save_artifact(
        "ablation_knob.txt",
        "KNOB-style 1-byte-entropy session brute force\n"
        f"  candidates tried : {result.candidates_tried} (max 256)\n"
        f"  recovered Kc'    : {result.kc_prime.hex()}\n"
        f"  session decrypted: "
        f"{any(MARKER in p for p in result.plaintexts)}",
    )


def test_ablation_knob_mitigation_refuses(save_artifact):
    def run():
        _, _, _, _, encryption = knobbed_session(
            seed=501, min_key_size_on_c=7
        )
        return encryption

    encryption = run()
    assert encryption.done and not encryption.success
    save_artifact(
        "ablation_knob_mitigation.txt",
        "Post-KNOB minimum key size (7 bytes) enforced by the peer:\n"
        f"  encryption established: {encryption.success}\n"
        f"  status: {encryption.status:#04x} (insufficient security)",
    )
