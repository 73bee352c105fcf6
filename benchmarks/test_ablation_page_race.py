"""Ablation — the page-response race under different radio postures.

Table II's baseline is a scan-phase coin flip.  This ablation sweeps
the attacker's page-scan interval (the only knob a spoofing responder
controls) and shows (a) a stock attacker stays near 50%, (b) an
aggressive scanner biases the race but still cannot guarantee it, and
(c) only page blocking reaches 100% — which is the paper's argument
for the attack's necessity.

Every trial runs through :func:`run_baseline_trial`, so the win rate
is also recoverable from the process-wide metrics registry
(``attack.race_wins / attack.race_attempts``) — asserted below against
the trial-counted sweep.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.attacks.baseline import run_baseline_trial
from repro.devices.catalog import LG_VELVET
from repro.obs.metrics import get_global_registry

from conftest import TRIALS


def race_with_interval(interval_slots: int, seed: int) -> bool:
    trial = run_baseline_trial(
        LG_VELVET, seed=seed, attacker_scan_interval_slots=interval_slots
    )
    return trial.attacker_won


def run_sweep(trials: int) -> List[Tuple[int, float]]:
    results = []
    for interval in (0x0800, 0x0400, 0x0100, 0x0040):  # 1.28s … 40ms
        wins = sum(
            race_with_interval(interval, seed=3000 + interval + t)
            for t in range(trials)
        )
        results.append((interval, wins / trials))
    return results


def test_ablation_page_race(save_artifact):
    trials = max(TRIALS // 2, 50)  # below ~50 the binomial noise drowns the shape
    registry = get_global_registry()
    attempts_before = registry.counter_value("attack.race_attempts")
    wins_before = registry.counter_value("attack.race_wins")
    sweep = run_sweep(trials)
    lines = [
        f"Page race vs attacker scan interval ({trials} trials each)",
        "",
        f"{'scan interval':>15} {'attacker win rate':>19}",
    ]
    for interval, rate in sweep:
        lines.append(f"{interval * 0.625:>12.1f} ms {rate:>18.0%}")
    save_artifact("ablation_page_race.txt", "\n".join(lines))

    rates: Dict[int, float] = dict(sweep)
    # Stock posture: a near-fair race (the Table II baseline).
    assert 0.30 <= rates[0x0800] <= 0.70
    # Aggressive scanning biases the race...
    assert rates[0x0040] > rates[0x0800]
    # ...but a moderate advantage still loses a solid share of races —
    # the race remains probabilistic, unlike page blocking.  (The
    # fastest setting may sweep a finite sample, so the guarantee is
    # asserted at the 2x-faster point where losses are statistically
    # certain.)
    assert rates[0x0400] < 1.0

    # The same experiment read back through the metrics registry: the
    # sweep ran exactly once, so the counter deltas must agree with the
    # trial-counted rates.
    attempts = registry.counter_value("attack.race_attempts") - attempts_before
    wins = registry.counter_value("attack.race_wins") - wins_before
    assert attempts == 4 * trials
    assert wins == sum(rate * trials for _, rate in sweep)
