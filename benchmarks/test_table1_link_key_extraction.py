"""Table I — devices vulnerable to the link key extraction attack.

Paper result: all nine tested systems (six Android phones, two Windows
10 stacks, Ubuntu 20.04/BlueZ) leak the bonded link key through HCI
data, and only Ubuntu requires superuser privilege.

This benchmark runs the complete Fig. 5 attack — via the ``extraction``
campaign scenario — against each catalog device acting as C and
regenerates the table: OS | host stack | device | channel | SU
privilege | vulnerable.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.campaign import CampaignSpec, TrialResult
from repro.devices.catalog import TABLE1_DEVICE_SPECS
from repro.devices.device import DeviceSpec

from conftest import campaign_runner

# Paper Table I ground truth: (marketing name fragment, su_required).
PAPER_SU_COLUMN = {
    "nexus_5x_android8": False,
    "lg_v50_android9": False,
    "galaxy_s8_android9": False,
    "pixel_2_xl_android11": False,
    "lg_velvet_android11": False,
    "galaxy_s21_android11": False,
    "windows10_microsoft": False,
    "windows10_csr_harmony": False,
    "ubuntu_2004_bluez": True,
}


def run_table1() -> List[Tuple[DeviceSpec, TrialResult]]:
    runner = campaign_runner()
    rows = []
    for index, spec in enumerate(TABLE1_DEVICE_SPECS):
        campaign = runner.run(
            CampaignSpec(
                "extraction",
                seeds=[1000 + index],
                params={"c_spec": spec.key},
            )
        )
        rows.append((spec, campaign.results[0]))
    return rows


def render(rows) -> str:
    lines = [
        "Table I: devices vulnerable to link key extraction attack",
        f"{'OS':<14} {'Host stack':<14} {'Device':<42} "
        f"{'Channel':<10} {'SU':<4} {'Vulnerable'}",
    ]
    lines.append("-" * len(lines[1]))
    for spec, trial in rows:
        detail = trial.detail
        lines.append(
            f"{spec.os:<14} {spec.stack_profile.name:<14} "
            f"{spec.marketing_name:<42} {detail['extraction_channel']:<10} "
            f"{'Y' if detail['su_required'] else 'N':<4} "
            f"{'YES' if detail['vulnerable'] else 'no'}"
        )
    return "\n".join(lines)


def test_table1_link_key_extraction(save_artifact):
    rows = run_table1()
    save_artifact("table1_link_key_extraction.txt", render(rows))

    assert len(rows) == 9
    for spec, trial in rows:
        assert trial.error is None, f"{spec.key}: {trial.error}"
        # Paper: every tested device is vulnerable.
        assert trial.success, f"{spec.marketing_name} not vulnerable?!"
        # Paper: the extracted key validates against M.
        assert trial.detail["validated_against_m"] is not False
        # Paper: the SU column matches.
        assert trial.detail["su_required"] == PAPER_SU_COLUMN[spec.key], spec.key
