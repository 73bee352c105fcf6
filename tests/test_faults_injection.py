"""Tests: live fault injection — every catalogued point, determinism
and timeline integration."""

import math

import pytest

from repro.attacks.scenario import WorldConfig, build_world
from repro.devices.catalog import LG_VELVET, NEXUS_5X_A8
from repro.faults import TRACE_SOURCE, FaultPlan, apply_fault_plan


def _world(seed, plan=None):
    world = build_world(WorldConfig(seed=seed, fault_plan=plan))
    m = world.add_device("M", LG_VELVET)
    c = world.add_device("C", NEXUS_5X_A8)
    m.power_on()
    c.power_on()
    world.run_for(0.5)
    return world, m, c


def _pair(world, m, c, budget=60.0):
    c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
    op = m.host.gap.pair(c.bd_addr)
    world.run_for(budget)
    return op


class TestPhyInjectors:
    def test_frame_loss_window_blocks_pairing(self):
        plan = [{"point": "phy.frame_loss", "mode": "window", "start_s": 0.0}]
        world, m, c = _world(seed=1, plan=plan)
        op = _pair(world, m, c)
        assert op.done and not op.success
        assert world.medium.frames_lost > 0
        assert world.faults.counts["phy.frame_loss"] > 0

    def test_blackout_window_then_recovery(self):
        # A blackout that covers the first pairing attempt; afterwards a
        # fresh attempt on the clean channel succeeds.
        plan = [
            {
                "point": "phy.blackout",
                "mode": "window",
                "start_s": 0.0,
                "end_s": 90.0,
            }
        ]
        world, m, c = _world(seed=2, plan=plan)
        first = _pair(world, m, c, budget=90.0)
        assert first.done and not first.success
        second = _pair(world, m, c)
        assert second.success
        edges = [e["edge"] for e in world.faults.events if "edge" in e]
        assert edges == ["open", "close"]

    def test_bit_flip_corrupts_acl_data(self):
        world, m, c = _world(seed=3)
        op = _pair(world, m, c)
        assert op.success
        # Flip every ACL payload from here on; the attack exfil layers
        # checksum their dumps, but here we just prove the hook fires
        # on byte payloads without crashing either stack.
        apply_fault_plan(
            world,
            [
                {
                    "point": "phy.bit_flip",
                    "mode": "window",
                    "start_s": world.simulator.now,
                    "params": {"flips": 3},
                }
            ],
        )
        m.host.gap.connect(c.bd_addr)
        world.run_for(10.0)
        assert world.faults.counts.get("phy.bit_flip", 0) > 0

    def test_latency_jitter_preserves_success(self):
        plan = [
            {
                "point": "phy.latency_jitter",
                "probability": 1.0,
                "params": {"jitter_s": 0.0005},
            }
        ]
        world, m, c = _world(seed=4, plan=plan)
        op = _pair(world, m, c)
        assert op.success
        assert world.faults.counts["phy.latency_jitter"] > 0
        assert world.medium.frames_lost == 0


class TestTransportInjectors:
    def test_stall_window_delays_but_completes(self):
        plan = [
            {
                "point": "transport.stall",
                "mode": "window",
                "start_s": 0.6,
                "end_s": 1.2,
                "target": "C",
            }
        ]
        world, m, c = _world(seed=5, plan=plan)
        op = _pair(world, m, c)
        assert op.success  # packets are parked, not lost
        assert world.faults.counts.get("transport.stall", 0) > 0

    def test_open_ended_stall_kills_the_device(self):
        plan = [
            {
                "point": "transport.stall",
                "mode": "window",
                "start_s": 0.0,
                "target": "C",
            }
        ]
        world, m, c = _world(seed=6, plan=plan)
        op = _pair(world, m, c)
        assert op.done and not op.success

    def test_garble_during_window_breaks_hci(self):
        plan = [
            {
                "point": "transport.garble",
                "mode": "window",
                "start_s": 0.6,
                "end_s": 30.0,
                "target": "M",
                "params": {"flips": 16},
            }
        ]
        world, m, c = _world(seed=7, plan=plan)
        op = _pair(world, m, c)
        assert op.done and not op.success
        assert world.faults.counts["transport.garble"] > 0

    def test_direction_filter_restricts_garbling(self):
        plan = [
            {
                "point": "transport.garble",
                "mode": "window",
                "start_s": 0.0,
                "target": "M",
                "params": {"direction": "h2c"},
            }
        ]
        world, m, c = _world(seed=8, plan=plan)
        _pair(world, m, c)
        for event in world.tracer.records:
            if event.source == TRACE_SOURCE and "flipped" in event.message:
                assert "host->controller" in event.message


class TestControllerInjectors:
    def test_hard_reset_tears_down_links(self):
        plan = [
            {
                "point": "controller.hard_reset",
                "mode": "oneshot",
                "at_s": 8.0,
                "target": "C",
            }
        ]
        world, m, c = _world(seed=9, plan=plan)
        m.host.gap.connect(c.bd_addr)
        world.run_for(5.0)
        assert c.controller._links_by_handle
        world.run_for(10.0)
        assert not c.controller._links_by_handle
        events = [e for e in world.faults.events
                  if e["point"] == "controller.hard_reset"]
        assert len(events) == 1 and events[0]["target"] == "C"

    def test_lmp_hang_window_fails_pairing_cleanly(self):
        plan = [
            {
                "point": "controller.lmp_hang",
                "mode": "window",
                "start_s": 0.0,
                "end_s": 40.0,
                "target": "C",
            }
        ]
        world, m, c = _world(seed=10, plan=plan)
        op = _pair(world, m, c)
        assert op.done and not op.success

    def test_lmp_hang_expires_with_window(self):
        plan = [
            {
                "point": "controller.lmp_hang",
                "mode": "window",
                "start_s": 0.0,
                "end_s": 1.0,
                "target": "C",
            }
        ]
        world, m, c = _world(seed=11, plan=plan)
        world.run_for(2.0)
        assert world.simulator.now >= c.controller.lmp_silence_until
        op = _pair(world, m, c)
        assert op.success

    def test_open_ended_lmp_hang(self):
        plan = [
            {
                "point": "controller.lmp_hang",
                "mode": "window",
                "start_s": 0.0,
                "target": "C",
            }
        ]
        world, m, c = _world(seed=12, plan=plan)
        assert c.controller.lmp_silence_until == math.inf
        op = _pair(world, m, c)
        assert op.done and not op.success


class TestHostInjectors:
    def _bonded_world(self, seed, plan):
        # Stop short of the oneshot at_s=45.0 so each test can observe
        # the pre-fault bonded state first.
        world, m, c = _world(seed=seed, plan=plan)
        op = _pair(world, m, c, budget=40.0)
        assert op.success
        assert world.simulator.now < 45.0
        return world, m, c

    def test_bond_loss_forgets_every_bond(self):
        plan = [
            {
                "point": "host.bond_loss",
                "mode": "oneshot",
                "at_s": 45.0,
                "target": "C",
            }
        ]
        world, m, c = self._bonded_world(13, plan)
        assert c.host.security.keys
        world.run_for(10.0)
        assert not c.host.security.keys
        assert m.host.security.keys  # untargeted device keeps its bond

    def test_bond_corrupt_replaces_link_keys(self):
        plan = [
            {
                "point": "host.bond_corrupt",
                "mode": "oneshot",
                "at_s": 45.0,
                "target": "C",
            }
        ]
        world, m, c = self._bonded_world(14, plan)
        before = {a: r.link_key.value for a, r in c.host.security.keys.items()}
        world.run_for(10.0)
        after = {a: r.link_key.value for a, r in c.host.security.keys.items()}
        assert set(before) == set(after)
        assert all(before[a] != after[a] for a in before)

    def test_stack_restart_reloads_persisted_bonds(self):
        plan = [
            {
                "point": "host.stack_restart",
                "mode": "oneshot",
                "at_s": 45.0,
                "target": "C",
            }
        ]
        world, m, c = self._bonded_world(15, plan)
        before = dict(c.host.security.keys)
        world.run_for(10.0)
        assert dict(c.host.security.keys) == before
        assert world.faults.counts["host.stack_restart"] == 1


class TestDeterminismAndObservability:
    LOSSY = [
        {"point": "phy.frame_loss", "probability": 0.05},
        {
            "point": "phy.latency_jitter",
            "probability": 0.25,
            "params": {"jitter_s": 0.002},
        },
    ]

    def _run(self, seed):
        world, m, c = _world(seed=seed, plan=self.LOSSY)
        op = _pair(world, m, c)
        return op.success, world.medium.frames_lost, world.faults.summary()

    def test_same_seed_same_plan_replays_identically(self):
        for seed in (20, 21, 22):
            assert self._run(seed) == self._run(seed)

    def test_fault_stream_is_seed_dependent(self):
        summaries = {repr(self._run(seed)) for seed in range(30, 36)}
        assert len(summaries) > 1

    def test_fault_events_share_the_world_timeline(self):
        plan = [
            {
                "point": "phy.frame_loss",
                "mode": "window",
                "start_s": 0.6,
                "end_s": 0.8,
            }
        ]
        world, m, c = _world(seed=23, plan=plan)
        _pair(world, m, c)
        sources = {record.source for record in world.tracer.records}
        assert TRACE_SOURCE in sources
        categories = {record.category for record in world.tracer.records}
        assert "fault" in categories

    def test_window_fault_opens_a_span(self):
        plan = [
            {
                "point": "phy.blackout",
                "mode": "window",
                "start_s": 1.0,
                "end_s": 2.0,
            }
        ]
        world, m, c = _world(seed=24, plan=plan)
        world.run_for(5.0)
        spans = [
            span
            for span in world.obs.spans.finished_spans()
            if span.name == "fault:phy.blackout"
        ]
        assert len(spans) == 1
        assert spans[0].duration == pytest.approx(1.0)

    def test_no_plan_worlds_carry_no_fault_machinery(self):
        world, m, c = _world(seed=25)
        assert world.faults is None
        assert not world.medium._frame_fault_filters
        op = _pair(world, m, c)
        assert op.success

    def test_metrics_count_injections(self):
        plan = [{"point": "phy.frame_loss", "probability": 1.0}]
        world, m, c = _world(seed=26, plan=plan)
        _pair(world, m, c, budget=10.0)
        snapshot = world.obs.metrics.snapshot()
        assert snapshot["counters"]["faults.injected"] > 0
