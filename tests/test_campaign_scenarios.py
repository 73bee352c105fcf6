"""Equivalence tests: every scenario matches its legacy entrypoint.

The scenario wrappers must not drift from the attack classes and free
functions they wrap — same seed, same world construction, same verdict.
Each test replays fixed seeds through both paths and compares.
"""

from __future__ import annotations

import json

import pytest

from repro.attacks.baseline import run_baseline_trial
from repro.attacks.link_key_extraction import LinkKeyExtractionAttack
from repro.attacks.page_blocking import PageBlockingAttack
from repro.attacks.scenario import WorldConfig, bond, build_world, standard_cast
from repro.campaign import get_scenario, run_trial, scenario_names
from repro.devices.catalog import GALAXY_S8, LG_VELVET

EXPECTED_SCENARIOS = [
    "baseline-race",
    "blurtooth-bredr-to-le",
    "blurtooth-le-to-bredr",
    "degraded-race",
    "detection-ambient",
    "detection-attack",
    "detection-benign",
    "eavesdrop",
    "exfiltration",
    "extraction",
    "extraction-ambient",
    "knob",
    "page-blocking",
    "page-blocking-ambient",
    "pin-crack",
]


def test_registry_lists_every_attack():
    assert [n for n in scenario_names() if not n.startswith("test-")] == (
        EXPECTED_SCENARIOS
    )


def test_every_result_is_json_serialisable():
    for name in EXPECTED_SCENARIOS:
        params = {"pin": "0042"} if name == "pin-crack" else None
        result, metrics = run_trial(name, seed=11, params=params)
        assert result.error is None, f"{name}: {result.error}"
        json.dumps(result.to_dict())
        json.dumps(metrics)


class TestBaselineEquivalence:
    def test_matches_run_baseline_trial_over_seeds(self):
        for seed in range(2000, 2010):
            legacy = run_baseline_trial(LG_VELVET, seed=seed)
            result, _ = run_trial("baseline-race", seed=seed)
            assert result.success == legacy.attacker_won, seed
            assert result.detail["connected"] == legacy.connected, seed

    def test_matches_for_other_victim_device(self):
        for seed in (12000, 12001, 12002):
            legacy = run_baseline_trial(GALAXY_S8, seed=seed)
            result, _ = run_trial(
                "baseline-race",
                seed=seed,
                params={"m_spec": "galaxy_s8_android9"},
            )
            assert result.success == legacy.attacker_won, seed


class TestPageBlockingEquivalence:
    def test_matches_attack_class(self):
        for seed in (52000, 61001):
            world = build_world(WorldConfig(seed=seed))
            m, c, a = standard_cast(world, m_spec=LG_VELVET)
            report = PageBlockingAttack(world, a, c, m).run(
                capture_m_dump=False, run_discovery=False
            )
            result, _ = run_trial("page-blocking", seed=seed)
            assert result.success == report.success, seed
            assert result.detail["paired"] == report.paired, seed
            assert (
                result.detail["downgraded_to_just_works"]
                == report.downgraded_to_just_works
            ), seed


class TestExtractionEquivalence:
    def test_matches_attack_class_including_key(self):
        seed = 1000
        world = build_world(WorldConfig(seed=seed))
        m, c, a = standard_cast(world)
        bond(world, c, m)
        report = LinkKeyExtractionAttack(world, a, c, m).run(validate=True)

        result, _ = run_trial("extraction", seed=seed)
        assert result.success == report.vulnerable
        assert result.detail["extraction_channel"] == report.extraction_channel
        assert result.detail["su_required"] == report.su_required
        assert result.detail["extracted_key"] == report.extracted_key.hex()


class TestScenarioSemantics:
    """Fixed-seed smoke of the scenarios without a 1:1 legacy function."""

    def test_exfiltration_steals_the_seeded_data(self):
        result, _ = run_trial("exfiltration", seed=21)
        assert result.success
        assert result.outcome == "exfiltrated"
        assert result.detail["silent"]
        assert result.detail["phonebook"] == [
            {"name": "Alice Example", "phone": "+1-555-0100"}
        ]
        assert result.detail["messages"][0]["sender"] == "Alice Example"

    def test_eavesdrop_needs_the_right_key(self):
        result, _ = run_trial("eavesdrop", seed=31)
        assert result.success
        assert result.outcome == "decrypted"
        assert result.detail["decrypted_hit"]
        assert not result.detail["wrong_key_hit"]
        assert result.detail["captured_frames"] > 0

    def test_knob_cracks_one_byte_entropy(self):
        result, _ = run_trial("knob", seed=41)
        assert result.success
        assert result.outcome == "session_cracked"
        assert 1 <= result.detail["candidates_tried"] <= 256

    def test_pin_crack_recovers_the_pin(self):
        result, _ = run_trial("pin-crack", seed=51, params={"pin": "0042"})
        assert result.success
        assert result.outcome == "pin_recovered"
        assert result.detail["pin"] == "0042"
        assert result.detail["key_matches_bond"]

    def test_same_seed_is_deterministic(self):
        first, first_metrics = run_trial("page-blocking", seed=777)
        second, second_metrics = run_trial("page-blocking", seed=777)
        assert first.to_dict()["detail"] == second.to_dict()["detail"]
        assert first.success == second.success
        assert first_metrics["counters"] == second_metrics["counters"]

    def test_unknown_param_is_rejected(self):
        scenario = get_scenario("baseline-race")
        from repro.campaign import TrialConfig

        with pytest.raises(KeyError, match="unknown params"):
            scenario.merged_params(TrialConfig(seed=1, params={"nope": 1}))
