"""Fig. 13 — the PLOC proof-of-concept and its timing envelope.

The PoC holds the attacker host's event processing for a fixed
duration (10 s in the paper) and assumes the victim initiates pairing
inside the window.  This benchmark sweeps the victim's pairing delay
against the hold duration and the link supervision timeout, mapping
when the attack holds and when the PLOC link decays.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.attacks.page_blocking import PageBlockingAttack
from repro.attacks.scenario import WorldConfig, build_world, standard_cast


def run_sweep() -> List[Tuple[float, float, bool]]:
    """(ploc_hold, pairing_delay) → success."""
    outcomes = []
    cases = [
        (10.0, 2.0),
        (10.0, 5.0),
        (10.0, 9.0),
        (10.0, 15.0),  # user pairs *after* the hold expired — still fine
        (5.0, 3.0),
        (20.0, 18.0),
    ]
    for index, (hold, delay) in enumerate(cases):
        world = build_world(WorldConfig(seed=90 + index))
        m, c, a = standard_cast(world)
        attack = PageBlockingAttack(world, a, c, m, ploc_hold_seconds=hold)
        report = attack.run(pairing_delay=delay, run_discovery=False)
        outcomes.append((hold, delay, report.success))
    return outcomes


def run_supervision_cases() -> List[Tuple[float, float, float, bool]]:
    """(supervision_timeout, ploc_hold, pairing_delay) → success.

    With a short supervision timeout the PLOC link only survives if the
    hold (during which the attacker's host answers nothing) ends before
    the link is declared dead — the timing problem the paper works
    around with dummy SDP traffic.
    """
    outcomes = []
    for index, (supervision, hold, delay) in enumerate(
        [(20.0, 10.0, 5.0), (3.0, 10.0, 8.0), (3.0, 2.0, 1.5)]
    ):
        world = build_world(WorldConfig(seed=120 + index))
        m, c, a = standard_cast(world)
        m.controller.supervision_timeout_s = supervision
        a.controller.supervision_timeout_s = supervision
        attack = PageBlockingAttack(world, a, c, m, ploc_hold_seconds=hold)
        report = attack.run(pairing_delay=delay, run_discovery=False)
        outcomes.append((supervision, hold, delay, report.success))
    return outcomes


def test_fig13_ploc_timing(save_artifact):
    sweep = run_sweep()
    lines = ["Fig. 13: PLOC hold vs victim pairing delay", ""]
    lines.append(f"{'hold (s)':>9} {'pairing at (s)':>15} {'MITM success'}")
    for hold, delay, success in sweep:
        lines.append(f"{hold:>9.1f} {delay:>15.1f} {'YES' if success else 'no'}")
    save_artifact("fig13_ploc_timing.txt", "\n".join(lines))

    # The paper's operating point (10 s hold, pairing within 10 s):
    assert all(
        success for hold, delay, success in sweep if delay < hold
    ), "PLOC must capture every pairing initiated inside the hold window"


def test_fig13_supervision_ablation(save_artifact):
    cases = run_supervision_cases()
    lines = [
        "PLOC vs link supervision timeout (the exception the paper",
        "handles with dummy SDP traffic)",
        "",
        f"{'supervision (s)':>16} {'hold (s)':>9} {'pairing at (s)':>15} "
        "MITM success",
    ]
    for supervision, hold, delay, success in cases:
        lines.append(
            f"{supervision:>16.1f} {hold:>9.1f} {delay:>15.1f} "
            f"{'YES' if success else 'no'}"
        )
    save_artifact("fig13_supervision.txt", "\n".join(lines))

    by_case = {(s, h, d): ok for s, h, d, ok in cases}
    assert by_case[(20.0, 10.0, 5.0)] is True  # generous supervision: fine
    assert by_case[(3.0, 10.0, 8.0)] is False  # idle PLOC link dies first
    assert by_case[(3.0, 2.0, 1.5)] is True  # short hold beats the decay
