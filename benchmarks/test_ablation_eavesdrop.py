"""Ablation — decrypting past traffic with an extracted key (§IV-C).

Shape expectation: the extracted key decrypts a previously sniffed E0
session; a wrong key does not.  Also checks that the E0 keystream
generator yields the requested number of bytes.
"""

from __future__ import annotations

from repro.attacks.eavesdrop import AirCapture, OfflineDecryptor
from repro.attacks.link_key_extraction import LinkKeyExtractionAttack
from repro.attacks.scenario import WorldConfig, bond, build_world, standard_cast
from repro.core.types import BdAddr, LinkKey
from repro.crypto.e0 import e0_keystream

MARKER = b"Personal Ad-hoc"


def full_chain(seed: int = 300):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    bond(world, c, m)

    capture = AirCapture().attach(world.medium)
    operation = m.host.gap.pair(c.bd_addr)
    world.run_for(10.0)
    assert operation.success
    m.host.gap.enable_encryption(c.bd_addr)
    world.run_for(2.0)
    m.host.sdp.query(c.bd_addr)
    world.run_for(5.0)
    m.host.gap.disconnect(c.bd_addr)
    world.run_for(2.0)

    report = LinkKeyExtractionAttack(world, a, c, m).run(validate=False)
    assert report.extraction_success

    decryptor = OfflineDecryptor(
        capture,
        report.extracted_key,
        prover_addr=c.bd_addr,
        master_addr=m.bd_addr,
        master_name=m.name,
    )
    plaintexts = decryptor.decrypt_all()
    wrong = decryptor.try_wrong_key(LinkKey(b"\x00" * 16))
    return {
        "captured_frames": len(capture.encrypted_acl_frames()),
        "decrypted_hit": any(MARKER in p for p in plaintexts),
        "wrong_key_hit": any(MARKER in p for p in wrong),
    }


def test_ablation_eavesdrop_full_chain(save_artifact):
    outcome = full_chain()
    save_artifact(
        "ablation_eavesdrop.txt",
        f"encrypted frames captured from the air: {outcome['captured_frames']}\n"
        f"extracted key decrypts the session:     {outcome['decrypted_hit']}\n"
        f"wrong key decrypts the session:         {outcome['wrong_key_hit']}",
    )
    assert outcome["captured_frames"] > 0
    assert outcome["decrypted_hit"] is True
    assert outcome["wrong_key_hit"] is False


def test_e0_keystream_length():
    """The bit-level E0 implementation yields the requested length."""
    addr = BdAddr.parse("aa:bb:cc:dd:ee:ff")
    stream = e0_keystream(b"\x11" * 16, addr, 42, 256)
    assert len(stream) == 256
