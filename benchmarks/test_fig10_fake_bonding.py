"""Fig. 10 — fake bonding information installed on the attacker device.

Regenerates the bt_config.conf entry (BD_ADDR section, name, PAN
service UUIDs, the extracted LinkKey) and verifies the install →
Bluetooth power-cycle → live-bond pipeline the validation procedure
uses.
"""

from __future__ import annotations

from repro.attacks.attacker import Attacker
from repro.attacks.scenario import WorldConfig, build_world, standard_cast
from repro.core.types import BdAddr, LinkKey

FAKE_KEY = LinkKey.parse("71a70981f30d6af9e20adee8aafe3264")


def install_fake_bonding(seed: int = 60):
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    attacker = Attacker(a)
    attacker.install_fake_bonding(
        m.bd_addr, FAKE_KEY, name="VELVET", services=[0x1115, 0x1116]
    )
    config_text = a.filesystem.read_text(
        "/data/misc/bluedroid/bt_config.conf", su=True
    )
    return a, m.bd_addr, config_text


def test_fig10_fake_bonding_info(save_artifact):
    device, m_addr, config_text = install_fake_bonding()
    save_artifact("fig10_fake_bonding.txt", config_text)

    # The file holds exactly the Fig. 10 ingredients.
    assert f"[{m_addr}]" in config_text
    assert "Name = VELVET" in config_text
    assert "00001115-0000-1000-8000-00805f9b34fb" in config_text
    assert "00001116-0000-1000-8000-00805f9b34fb" in config_text
    assert f"LinkKey = {FAKE_KEY.hex()}" in config_text

    # And after the power cycle the stack serves it as a live bond.
    assert device.bonded_key_for(m_addr) == FAKE_KEY
