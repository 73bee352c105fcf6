"""Table II — MITM connection success rates with and without page
blocking.

Paper result: 42–60% success without page blocking (a scan-phase race
the attacker cannot control) and 100% with page blocking, across all
seven victim devices.

Expected shape here: the baseline scatters around ~50% (the paper
itself concludes the race is "quite random"), and page blocking is a
deterministic 100%.

Both conditions run through the campaign engine — same seeds, same
worlds as the old hand-rolled loops (the CampaignRunner equivalence
tests pin this), but shardable across workers via
``BLAP_CAMPAIGN_WORKERS``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.campaign import CampaignRunner, CampaignSpec
from repro.devices.catalog import TABLE2_DEVICE_SPECS
from repro.devices.device import DeviceSpec

from conftest import TRIALS, campaign_runner

# Paper Table II: baseline success rates measured on real hardware.
PAPER_BASELINE = {
    "iphone_xs_ios1442": 0.52,
    "nexus_5x_android8": 0.52,
    "lg_v50_android9": 0.57,
    "galaxy_s8_android9": 0.42,
    "pixel_2_xl_android11": 0.60,
    "lg_velvet_android11": 0.60,
    "galaxy_s21_android11": 0.51,
}


def measure_device(
    runner: CampaignRunner, spec: DeviceSpec, trials: int, seed_base: int
) -> Tuple[float, float]:
    baseline = runner.run(
        CampaignSpec(
            "baseline-race",
            seeds=range(seed_base, seed_base + trials),
            params={"m_spec": spec.key},
        )
    )
    blocked = runner.run(
        CampaignSpec(
            "page-blocking",
            seeds=range(seed_base + 50_000, seed_base + 50_000 + trials),
            params={"m_spec": spec.key},
        )
    )
    return baseline.success_rate, blocked.success_rate


def run_table2(trials: int) -> List[Tuple[DeviceSpec, float, float]]:
    runner = campaign_runner()
    rows = []
    for index, spec in enumerate(TABLE2_DEVICE_SPECS):
        baseline, blocked = measure_device(
            runner, spec, trials, seed_base=2000 + index * 10_000
        )
        rows.append((spec, baseline, blocked))
    return rows


def render(rows, trials: int) -> str:
    lines = [
        f"Table II: MITM connection success rates ({trials} trials/cell)",
        f"{'Device':<28} {'Paper w/o':<10} {'Ours w/o':<10} "
        f"{'Paper with':<11} {'Ours with'}",
    ]
    lines.append("-" * len(lines[1]))
    for spec, baseline, blocked in rows:
        paper = PAPER_BASELINE[spec.key]
        lines.append(
            f"{spec.marketing_name + ' (' + spec.os + ')':<28} "
            f"{paper:>7.0%}   {baseline:>7.0%}   {1.0:>8.0%}   {blocked:>7.0%}"
        )
    return "\n".join(lines)


def test_table2_page_blocking(save_artifact):
    rows = run_table2(TRIALS)
    save_artifact("table2_page_blocking.txt", render(rows, TRIALS))

    assert len(rows) == 7
    # The baseline race is a scan-phase coin flip: at the paper's 100
    # trials the 42–60% band (plus binomial slack) applies; the 8-trial
    # CI smoke slice quantises to 12.5% steps, so the band widens.
    low, high = (0.30, 0.70) if TRIALS >= 50 else (0.125, 0.875)
    for spec, baseline, blocked in rows:
        # Page blocking is deterministic: 100% on every device.
        assert blocked == 1.0, f"{spec.key}: page blocking not deterministic"
        # The baseline race stays strictly inside (0, 1): the attacker
        # can neither guarantee nor be locked out of the connection...
        assert 0.0 < baseline < 1.0
        # ...and lands in the paper's qualitative band (a near-fair
        # race; we allow binomial slack around it).
        assert low <= baseline <= high, f"{spec.key}: baseline={baseline}"
