"""Run reports: Wilson intervals, Markdown/HTML rendering, determinism."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignRunner, ResultCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    PAPER_TABLE1_SU,
    PAPER_TABLE2_BASELINE,
    generate_report,
    render_html,
    render_markdown,
    wilson_interval,
)


class TestWilsonInterval:
    def test_empty_sample_is_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 0.0)

    def test_all_successes_does_not_collapse_to_one(self):
        low, high = wilson_interval(10, 10)
        assert high == pytest.approx(1.0)
        assert low == pytest.approx(0.7225, abs=5e-4)

    def test_all_failures_mirrors_all_successes(self):
        low, high = wilson_interval(0, 10)
        mlow, mhigh = wilson_interval(10, 10)
        assert low == pytest.approx(0.0)
        assert high == pytest.approx(1.0 - mlow)

    def test_half_is_symmetric_around_half(self):
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(1.0 - high)
        assert low < 0.5 < high

    def test_more_trials_tighten_the_interval(self):
        low10, high10 = wilson_interval(5, 10)
        low1000, high1000 = wilson_interval(500, 1000)
        assert high1000 - low1000 < high10 - low10

    def test_bounds_stay_in_unit_interval(self):
        for s, n in [(0, 1), (1, 1), (3, 7), (99, 100)]:
            low, high = wilson_interval(s, n)
            assert 0.0 <= low <= high <= 1.0


def _synthetic_data():
    registry = MetricsRegistry()
    hist = registry.histogram("sim.callback_wall_s")
    for i in range(1, 101):
        hist.observe(i / 1000.0)
    # One nested chain pairing > inquiry > page: wall per span type
    # plus the self-time families the attribution section reads.  Self
    # totals (9.2 + 0.28 + 0.01) stay below the root wall total (9.5).
    for name, values in [
        ("span.pairing_s", [0.5, 1.0, 8.0]),
        ("span.inquiry_s", [0.1, 0.2]),
        ("span.page_s", [0.01]),
        ("spanself.pairing_s", [0.4, 0.9, 7.9]),
        ("spanself.inquiry_s", [0.09, 0.19]),
        ("spanself.page_s", [0.01]),
        ("spantree.pairing_s", [0.4, 0.9, 7.9]),
        ("spantree.pairing;inquiry_s", [0.09, 0.19]),
        ("spantree.pairing;inquiry;page_s", [0.01]),
    ]:
        h = registry.histogram(name)
        for value in values:
            h.observe(value)
    return {
        "trials": 10,
        "table1": [
            {
                "key": "nexus_5x_android8",
                "os": "Android 8",
                "stack": "bluedroid",
                "device": "Nexus 5X",
                "channel": "hci_injection",
                "su_required": False,
                "su_paper": PAPER_TABLE1_SU["nexus_5x_android8"],
                "vulnerable": True,
            },
        ],
        "table2": [
            {
                "key": "galaxy_s8_android9",
                "device": "Galaxy S8 (Android 9)",
                "paper_baseline": PAPER_TABLE2_BASELINE["galaxy_s8_android9"],
                "baseline_successes": 4,
                "blocked_successes": 10,
                "trials": 10,
            },
        ],
        "scenarios": {
            "baseline-race": {"trials": 10, "successes": 4, "errors": 0},
            "page-blocking": {"trials": 10, "successes": 10, "errors": 0},
        },
        "metrics": registry.snapshot(),
    }


class TestRenderMarkdown:
    def test_tables_and_paper_columns_render(self):
        text = render_markdown(_synthetic_data())
        assert "# BLAP campaign run report" in text
        assert "## Table I" in text and "## Table II" in text
        assert "| Nexus 5X | Android 8 | bluedroid | hci_injection |" in text
        # paper baseline 42% next to ours 40% with a Wilson CI
        assert "| 42% | 40% | [17%, 69%] | 100% | 100% |" in text
        assert "| page-blocking | 10 | 10 | 100% |" in text

    def test_metric_quantiles_come_from_the_digest(self):
        text = render_markdown(_synthetic_data())
        assert "## Metric quantiles (merged digests)" in text
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith("| sim.callback_wall_s ")
        )
        cells = [c.strip() for c in line.strip("|").split("|")]
        # name, count, mean, p50, p90, p99, max
        assert cells[1] == "100"
        assert float(cells[3]) == pytest.approx(0.0505, rel=0.05)
        assert float(cells[6]) == pytest.approx(0.1, rel=1e-6)

    def test_attribution_tree_hierarchical_and_capped(self):
        text = render_markdown(_synthetic_data(), top_spans=2)
        assert "## Self-time attribution (merged span trees)" in text
        # the old wall-total ranking double-counted parents; gone
        assert "slowest span types" not in text
        lines = [ln for ln in text.splitlines() if ln.startswith("| ")]
        rows = [
            ln for ln in lines
            if ln.startswith(("| pairing ", "| · "))
        ]
        assert len(rows) == 2
        assert rows[0].startswith("| pairing ")
        assert rows[1].startswith("| · inquiry ")
        assert "(1 deeper paths elided)" in text

    def test_attribution_self_total_bounded_by_root_wall(self):
        from repro.obs.report import collect_attribution

        attribution = collect_attribution(
            _synthetic_data()["metrics"]["histograms"]
        )
        assert attribution["rows"]
        assert attribution["total_self_s"] == pytest.approx(9.49)
        assert attribution["total_self_s"] <= attribution["root_wall_s"]
        assert attribution["root_wall_s"] == pytest.approx(9.5)

    def test_optional_sections_render_when_given(self):
        roc = {
            "rate-anomaly": {
                "attack": "page-blocking",
                "operating_point": {
                    "threshold": 0.5,
                    "tpr": 0.95,
                    "fpr": 0.02,
                    "mean_latency_s": 1.25,
                },
            }
        }
        telemetry = [
            {
                "scenario": "baseline-race",
                "seed": seed,
                "success": seed % 2 == 0,
                "outcome": "mitm",
                "wall_time_s": 0.1 * seed,
                "cached": seed == 0,
            }
            for seed in range(4)
        ]
        text = render_markdown(_synthetic_data(), roc=roc, telemetry=telemetry)
        assert "## Detector operating points" in text
        assert "| rate-anomaly | page-blocking | 0.5 | 95% | 2% | 1.25s |" in text
        assert "## Run telemetry" in text
        assert "4 trial records (2 successes, 1 cache hits)" in text
        # slowest trial listed first
        slow = text.split("Slowest trials:")[1]
        assert slow.index("| baseline-race | 3 ") < slow.index(
            "| baseline-race | 2 "
        )

    def test_optional_sections_absent_by_default(self):
        text = render_markdown(_synthetic_data())
        for heading in (
            "## Detector operating points",
            "## Run telemetry",
        ):
            assert heading not in text

    def test_render_is_pure(self):
        data = _synthetic_data()
        assert render_markdown(data) == render_markdown(data)


class TestRenderJson:
    def test_payload_shape_and_determinism(self):
        from repro.obs.report import render_json

        data = _synthetic_data()
        text = render_json(data)
        assert text == render_json(data)
        payload = json.loads(text)
        assert payload["format"] == 1
        assert payload["trials"] == 10
        assert payload["table2"][0]["blocked_successes"] == 10
        attribution = payload["attribution"]
        assert attribution["total_self_s"] <= attribution["root_wall_s"]
        paths = [tuple(row["path"]) for row in attribution["rows"]]
        assert ("pairing", "inquiry", "page") in paths
        # optional sections absent unless provided
        for key in ("roc", "telemetry"):
            assert key not in payload

    def test_optional_sections_included(self):
        from repro.obs.report import render_json

        payload = json.loads(
            render_json(
                _synthetic_data(),
                telemetry=[
                    {"scenario": "extraction", "seed": 1, "success": True,
                     "wall_time_s": 0.1, "cached": False},
                ],
            )
        )
        assert payload["telemetry"]["trials"] == 1


class TestRenderHtml:
    def test_headings_tables_and_escaping(self):
        markdown = "\n".join(
            [
                "# Title <x>",
                "",
                "Some & prose.",
                "",
                "| A | B |",
                "| --- | --- |",
                "| 1 | <2> |",
            ]
        )
        html = render_html(markdown, title="a < b")
        assert "<title>a &lt; b</title>" in html
        assert "<h1>Title &lt;x&gt;</h1>" in html
        assert "<p>Some &amp; prose.</p>" in html
        assert "<tr><th>A</th><th>B</th></tr>" in html
        assert "<tr><td>1</td><td>&lt;2&gt;</td></tr>" in html
        assert "---" not in html  # separator row consumed

    def test_full_report_roundtrip(self):
        html = render_html(render_markdown(_synthetic_data()))
        assert html.startswith("<!doctype html>")
        assert "<h2>Table I — link key extraction across the device fleet</h2>" in html
        assert "<table>" in html


class TestGenerateReport:
    def test_report_is_deterministic_from_a_warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = generate_report(
            CampaignRunner(workers=2, cache=cache), trials=2
        )
        warm = generate_report(
            CampaignRunner(workers=1, cache=cache), trials=2
        )
        assert warm == cold
        assert "## Table I" in warm and "## Table II" in warm
        from repro.devices.catalog import TABLE1_DEVICE_SPECS, TABLE2_DEVICE_SPECS

        for spec in (*TABLE1_DEVICE_SPECS, *TABLE2_DEVICE_SPECS):
            assert spec.marketing_name in warm
        assert "Self-time attribution" in warm

    def test_artifact_sections_are_wired_through(self, tmp_path):
        roc_path = tmp_path / "roc.json"
        roc_path.write_text(json.dumps({
            "burst": {
                "attack": "page-blocking",
                "operating_point": {"threshold": 1.0, "tpr": 1.0, "fpr": 0.0},
            }
        }))
        run_dir = tmp_path / "runs" / "r1"
        run_dir.mkdir(parents=True)
        (run_dir / "telemetry.jsonl").write_text(
            json.dumps({
                "scenario": "extraction", "seed": 7, "success": True,
                "outcome": "key", "wall_time_s": 0.01, "cached": False,
            }) + "\n"
        )
        cache = ResultCache(tmp_path / "cache")
        text = generate_report(
            CampaignRunner(workers=1, cache=cache),
            trials=1,
            roc_path=roc_path,
            run_dir=run_dir,
            html=True,
        )
        assert "<h2>Detector operating points</h2>" in text
        assert "<h2>Run telemetry</h2>" in text
