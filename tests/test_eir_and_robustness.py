"""Tests: EIR discovery, lossy-medium failure injection, auth guards."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.scenario import WorldConfig, build_world
from repro.devices.catalog import LG_VELVET, NEXUS_5X_A8
from repro.hci import commands as cmd
from repro.hci.eir import (
    build_eir,
    eir_local_name,
    eir_uuid16s,
    parse_eir,
)
from repro.hci.constants import ErrorCode


class TestEirStructures:
    def test_name_roundtrip(self):
        assert eir_local_name(build_eir(name="LG VELVET")) == "LG VELVET"

    def test_uuid_roundtrip(self):
        raw = build_eir(uuid16s=[0x1115, 0x1116, 0x112F])
        assert eir_uuid16s(raw) == [0x1115, 0x1116, 0x112F]

    def test_combined_payload(self):
        raw = build_eir(name="Phone", uuid16s=[0x1101], tx_power=4)
        assert eir_local_name(raw) == "Phone"
        assert eir_uuid16s(raw) == [0x1101]
        assert parse_eir(raw)[0x0A] == bytes([4])

    def test_long_name_gets_shortened(self):
        raw = build_eir(name="x" * 300, uuid16s=[0x1101])
        assert len(raw) <= 240
        name = eir_local_name(raw)
        assert name is not None and name.startswith("xxx")

    def test_zero_padding_tolerated(self):
        raw = build_eir(name="abc") + b"\x00" * 16
        assert eir_local_name(raw) == "abc"

    def test_missing_structures(self):
        assert eir_local_name(b"") is None
        assert eir_uuid16s(b"") == []

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=25)
    def test_name_roundtrip_property(self, name):
        assert eir_local_name(build_eir(name=name)) == name


class TestExtendedDiscovery:
    def test_eir_discovery_carries_names(self):
        world = build_world(WorldConfig(seed=5))
        m = world.add_device("M", LG_VELVET)
        c = world.add_device("C", NEXUS_5X_A8)
        m.power_on()
        c.power_on()
        world.run_for(0.5)
        m.host.send_command(cmd.WriteInquiryMode(inquiry_mode=2))
        op = m.host.gap.start_discovery()
        world.run_for(8.0)
        assert op.success
        assert [d.name for d in op.result] == ["Nexus 5x"]
        assert m.host.gap.name_cache[c.bd_addr] == "Nexus 5x"

    def test_standard_mode_has_no_names(self):
        world = build_world(WorldConfig(seed=6))
        m = world.add_device("M", LG_VELVET)
        c = world.add_device("C", NEXUS_5X_A8)
        m.power_on()
        c.power_on()
        world.run_for(0.5)
        op = m.host.gap.start_discovery()
        world.run_for(8.0)
        assert op.success and op.result[0].name == ""


class TestLossyMedium:
    @staticmethod
    def _loss_plan(loss_rate):
        return [{"point": "phy.frame_loss", "probability": loss_rate}]

    def _pair_under_loss(self, seed, loss_rate):
        world = build_world(
            WorldConfig(seed=seed, fault_plan=self._loss_plan(loss_rate))
        )
        m = world.add_device("M", LG_VELVET)
        c = world.add_device("C", NEXUS_5X_A8)
        m.power_on()
        c.power_on()
        world.run_for(0.5)
        c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(60.0)
        return world, op

    def test_total_loss_fails_cleanly(self):
        """With a dead channel, pairing fails; nothing hangs or leaks."""
        world, op = self._pair_under_loss(seed=7, loss_rate=1.0)
        assert op.done and not op.success
        assert world.medium.frames_lost > 0

    def test_partial_loss_never_hangs(self):
        """Under 30% loss every attempt terminates (success or clean
        failure) — the failure-injection invariant."""
        for seed in range(8):
            world, op = self._pair_under_loss(seed=100 + seed, loss_rate=0.3)
            assert op.done, f"seed {seed}: pairing operation hung"
            # LMP has no retransmission in this simulation, so losing
            # nearly a third of all frames reliably kills pairing.
            assert not op.success

    def test_lossless_is_default(self):
        world = build_world(WorldConfig(seed=9))
        m = world.add_device("M", LG_VELVET)
        c = world.add_device("C", NEXUS_5X_A8)
        m.power_on()
        c.power_on()
        world.run_for(0.5)
        c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(60.0)
        assert op.success
        assert world.medium.frames_lost == 0

    def test_sniffer_still_sees_lost_frames(self):
        from repro.attacks.eavesdrop import AirCapture
        from repro.faults import apply_fault_plan

        world = build_world(WorldConfig(seed=10))
        m = world.add_device("M", LG_VELVET)
        c = world.add_device("C", NEXUS_5X_A8)
        m.power_on()
        c.power_on()
        world.run_for(0.5)
        # Bring the link up cleanly first — total loss would also kill
        # the page itself — then cut the channel and pair over it.
        m.host.gap.connect(c.bd_addr)
        world.run_for(5.0)
        apply_fault_plan(world, self._loss_plan(1.0))
        capture = AirCapture().attach(world.medium)
        m.host.gap.pair(c.bd_addr)
        world.run_for(10.0)
        # Lost frames were transmitted: passive capture records them.
        assert world.medium.frames_lost == len(capture.frames) > 0


class TestAuthenticationGuard:
    def test_wedged_authentication_fails_instead_of_hanging(self):
        world = build_world(WorldConfig(seed=11))
        m = world.add_device("M", LG_VELVET)
        c = world.add_device("C", NEXUS_5X_A8)
        m.power_on()
        c.power_on()
        world.run_for(0.5)
        m.host.gap.connect(c.bd_addr)
        world.run_for(5.0)
        # Freeze everything security-related on C *and* disable the
        # controller-side timeout to prove the host guard works alone.
        c.host.drop_link_key_requests = True
        m.controller.LMP_RESPONSE_TIMEOUT  # (class default untouched)
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(60.0)
        assert op.done and not op.success

    def test_guard_does_not_fire_on_success(self):
        world = build_world(WorldConfig(seed=12))
        m = world.add_device("M", LG_VELVET)
        c = world.add_device("C", NEXUS_5X_A8)
        m.power_on()
        c.power_on()
        world.run_for(0.5)
        c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
        op = m.host.gap.pair(c.bd_addr)
        world.run_for(60.0)
        assert op.success
        assert world.simulator.pending == 0  # guard event was cancelled
