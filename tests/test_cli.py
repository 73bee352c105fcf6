"""Tests for the ``blap`` command-line tools."""

import pytest

from repro.cli import main
from repro.core.types import BdAddr, LinkKey
from repro.hci import commands as cmd
from repro.hci import events as evt
from repro.sim.eventloop import Simulator
from repro.snoop.hcidump import HciDump
from repro.transport.uart import UartH4Transport
from repro.transport.usb import UsbSniffer, UsbTransport

ADDR = BdAddr.parse("48:90:11:22:33:44")
KEY = LinkKey.parse("71a70981f30d6af9e20adee8aafe3264")


@pytest.fixture
def btsnoop_file(tmp_path):
    sim = Simulator()
    transport = UartH4Transport(sim)
    transport.attach_host(lambda raw: None)
    transport.attach_controller(lambda raw: None)
    dump = HciDump().attach(transport)
    transport.send_from_host(cmd.AuthenticationRequested(connection_handle=6))
    transport.send_from_controller(evt.LinkKeyRequest(bd_addr=ADDR))
    transport.send_from_host(cmd.LinkKeyRequestReply(bd_addr=ADDR, link_key=KEY))
    sim.run()
    path = tmp_path / "btsnoop_hci.log"
    path.write_bytes(dump.to_btsnoop_bytes())
    return path


@pytest.fixture
def usb_stream_file(tmp_path):
    sim = Simulator()
    transport = UsbTransport(sim)
    transport.attach_host(lambda raw: None)
    transport.attach_controller(lambda raw: None)
    sniffer = UsbSniffer().attach(transport)
    transport.send_from_host(cmd.LinkKeyRequestReply(bd_addr=ADDR, link_key=KEY))
    sim.run()
    path = tmp_path / "usb_capture.bin"
    path.write_bytes(sniffer.raw_stream())
    return path


class TestExtract:
    def test_extract_finds_key(self, btsnoop_file, capsys):
        assert main(["extract", str(btsnoop_file)]) == 0
        out = capsys.readouterr().out
        assert KEY.hex() in out
        assert str(ADDR) in out

    def test_extract_clean_capture_fails(self, tmp_path, capsys):
        sim = Simulator()
        transport = UartH4Transport(sim)
        transport.attach_host(lambda raw: None)
        transport.attach_controller(lambda raw: None)
        dump = HciDump().attach(transport)
        transport.send_from_host(cmd.Reset())
        sim.run()
        path = tmp_path / "clean.log"
        path.write_bytes(dump.to_btsnoop_bytes())
        assert main(["extract", str(path)]) == 1


class TestDump:
    def test_dump_renders_table(self, btsnoop_file, capsys):
        assert main(["dump", str(btsnoop_file)]) == 0
        out = capsys.readouterr().out
        assert "HCI_Link_Key_Request_Reply" in out
        assert "HCI_Authentication_Requested" in out

    def test_dump_row_limit(self, btsnoop_file, capsys):
        main(["dump", str(btsnoop_file), "--rows", "1"])
        out = capsys.readouterr().out
        assert "HCI_Link_Key_Request_Reply" not in out


class TestUsb:
    def test_usb_extract(self, usb_stream_file, capsys):
        assert main(["usb-extract", str(usb_stream_file)]) == 0
        assert KEY.hex() in capsys.readouterr().out

    def test_bin2hex(self, usb_stream_file, capsys):
        assert main(["bin2hex", str(usb_stream_file)]) == 0
        assert "0b 04 16" in capsys.readouterr().out.replace("\n", " ")


class TestPcap:
    def test_pcap_conversion(self, btsnoop_file, tmp_path, capsys):
        out_path = tmp_path / "capture.pcap"
        assert main(["pcap", str(btsnoop_file), "-o", str(out_path)]) == 0
        raw = out_path.read_bytes()
        from repro.snoop.pcap import (
            LINKTYPE_BLUETOOTH_HCI_H4_WITH_PHDR,
            parse_pcap,
        )

        linktype, packets = parse_pcap(raw)
        assert linktype == LINKTYPE_BLUETOOTH_HCI_H4_WITH_PHDR
        assert len(packets) == 3


class TestIocap:
    def test_iocap_default(self, capsys):
        assert main(["iocap"]) == 0
        assert "just_works" in capsys.readouterr().out

    def test_iocap_version_42(self, capsys):
        assert main(["iocap", "--version", "4.2"]) == 0
        assert "v4.2" in capsys.readouterr().out


class TestTimeline:
    def test_table_output(self, capsys):
        assert main(["timeline", "page-blocking", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "source" in out.splitlines()[0]
        assert "attack.page_blocking" in out

    def test_jsonl_is_ordered_and_cross_layer(self, capsys):
        import json

        assert main(
            ["timeline", "page-blocking", "--seed", "3", "--format", "jsonl"]
        ) == 0
        payloads = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        keys = [(p["t"], p["seq"]) for p in payloads]
        assert keys == sorted(keys)
        # the merge interleaves the phy layer with per-device streams
        assert {"phy", "M", "C", "A"} <= {p["source"] for p in payloads}
        categories = {p["category"] for p in payloads}
        assert "phy-page" in categories
        assert "hci-cmd" in categories
        assert "host-cmd" in categories
        assert "span" in categories
        for payload in payloads:
            assert payload["btsnoop_us"] >= 62_168_256_000_000_000

    def test_chrome_trace_to_file(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(
            [
                "timeline",
                "page-blocking",
                "--seed",
                "3",
                "--format",
                "chrome",
                "-o",
                str(out_path),
            ]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        events = trace["traceEvents"]
        real = [e for e in events if e["ph"] != "M"]
        assert real, "no events exported"
        for event in real:
            assert event["ph"] in ("X", "i")
            assert isinstance(event["pid"], int)
            assert "ts" in event
        ts = [e["ts"] for e in real]
        assert ts == sorted(ts)
        sources = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert len(sources) >= 3
        assert any(e["ph"] == "X" for e in real)  # spans made it across

    def test_limit_and_filters(self, capsys):
        import json

        assert main(
            [
                "timeline",
                "extraction",
                "--seed",
                "3",
                "--format",
                "jsonl",
                "--source",
                "phy",
                "--limit",
                "5",
            ]
        ) == 0
        payloads = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert 0 < len(payloads) <= 5
        assert all(p["source"] == "phy" for p in payloads)


class TestDemoExitCodes:
    def test_successful_demo_exits_zero(self, capsys):
        assert main(["demo", "baseline-race", "--seed", "60"]) == 0
        assert "success : True" in capsys.readouterr().out

    def test_failed_demo_exits_nonzero(self, capsys):
        # seed 61 loses the connection race — the demo must say so in
        # its exit code, not just in prose.
        assert main(["demo", "baseline-race", "--seed", "61"]) == 1
        out = capsys.readouterr().out
        assert "success : False" in out

    def test_every_scenario_is_a_demo(self, capsys):
        assert main(["demo", "pin-crack", "--seed", "2", "--param", "pin=0007"]) == 0
        out = capsys.readouterr().out
        assert "outcome : pin_recovered" in out


class TestCampaignCli:
    def test_run_summary_and_exit_zero(self, capsys):
        assert main(
            ["campaign", "run", "extraction", "--trials", "2", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "extraction: 2/2 succeeded (100%)" in out

    def test_run_json_output(self, capsys):
        import json

        assert main(
            [
                "campaign", "run", "baseline-race",
                "--trials", "3", "--seed-base", "60", "--no-cache", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 3
        assert len(payload["results"]) == 3
        assert payload["results"][0]["seed"] == 60

    def test_param_override(self, capsys):
        assert main(
            [
                "campaign", "run", "baseline-race",
                "--trials", "2", "--no-cache",
                "--param", "m_spec=galaxy_s8_android9",
            ]
        ) == 0

    def test_unknown_param_exits_nonzero(self, capsys):
        assert main(
            [
                "campaign", "run", "baseline-race",
                "--trials", "1", "--no-cache", "--param", "typo=1",
            ]
        ) == 1

    def test_cache_roundtrip(self, tmp_path, capsys):
        argv = [
            "campaign", "run", "extraction", "--trials", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "cache 0 hit / 2 miss" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache 2 hit / 0 miss" in capsys.readouterr().out

    def test_list_names_every_scenario(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "baseline-race", "page-blocking", "extraction",
            "exfiltration", "eavesdrop", "knob", "pin-crack",
        ):
            assert name in out

    def test_table1_reproduces(self, capsys):
        assert main(["campaign", "table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.count("YES") == 9

    def test_table2_smoke_reproduces(self, capsys):
        assert main(
            ["campaign", "table2", "--trials", "8", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out
        assert "112 trials" in out


class TestDemos:
    def test_demo_extraction(self, capsys):
        assert main(["demo", "extraction", "--seed", "3"]) == 0
        assert "matches truth : True" in capsys.readouterr().out

    def test_demo_page_blocking(self, capsys):
        assert main(["demo", "page-blocking", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "MITM connection : True" in out
        assert "HCI_Connection_Request" in out

    def test_demo_exfiltration(self, capsys):
        assert main(["demo", "exfiltration", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Alice Example" in out
        assert "silent (no popup on victim): True" in out


class TestCampaignTelemetryCli:
    def test_run_streams_telemetry_by_default(self, capsys):
        import json
        import os
        from pathlib import Path

        assert main(
            [
                "campaign", "run", "extraction", "--trials", "2",
                "--no-cache", "--quiet", "--run-id", "smoke",
            ]
        ) == 0
        err = capsys.readouterr().err
        run_dir = Path(os.environ["BLAP_RUNS_DIR"]) / "smoke"
        assert f"telemetry: {run_dir / 'telemetry.jsonl'}" in err
        lines = (run_dir / "telemetry.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["scenario"] == "extraction"
                   for line in lines)
        assert (run_dir / "run.json").exists()

    def test_quiet_mode_emits_start_and_end_only(self, capsys):
        assert main(
            [
                "campaign", "run", "extraction", "--trials", "3",
                "--no-cache", "--quiet", "--run-id", "q",
            ]
        ) == 0
        err_lines = capsys.readouterr().err.splitlines()
        # start, final summary, telemetry path pointer
        assert len(err_lines) == 3
        assert "0/3 trials started" in err_lines[0]
        assert "3/3 trials" in err_lines[1]

    def test_no_telemetry_opt_out(self, capsys):
        import os
        from pathlib import Path

        assert main(
            [
                "campaign", "run", "extraction", "--trials", "1",
                "--no-cache", "--no-telemetry",
            ]
        ) == 0
        assert "telemetry:" not in capsys.readouterr().err
        assert not Path(os.environ["BLAP_RUNS_DIR"]).exists()


class TestReportCli:
    def test_report_is_deterministic_from_cache(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        argv = [
            "report", "--trials", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "-o", str(out_path),
        ]
        assert main(argv) == 0
        first = out_path.read_bytes()
        assert main(argv) == 0
        assert out_path.read_bytes() == first
        text = first.decode()
        assert "# BLAP campaign run report" in text
        assert "## Table I" in text and "## Table II" in text
        assert f"wrote report to {out_path}" in capsys.readouterr().out

    def test_report_html_to_stdout(self, tmp_path, capsys):
        assert main(
            [
                "report", "--trials", "1", "--html",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("<!doctype html>")
        assert "<h2>Table II" in out


class TestProfileCli:
    def test_profile_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "prof"
        assert main(
            [
                "profile", "run", "extraction", "--trials", "2",
                "--seed-base", "7", "-o", str(out_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "span type" in out
        assert "self-time total" in out
        assert (out_dir / "spans.collapsed").read_text().strip()
        assert (out_dir / "profile.json").exists()

    def test_profile_run_json_summary(self, tmp_path, capsys):
        import json

        assert main(
            [
                "profile", "run", "extraction", "--trials", "1",
                "-o", str(tmp_path / "p"), "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["top_self"]
        assert payload["total_self_s"] <= payload["root_wall_s"] + 1e-9

    def test_profile_flame_is_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.collapsed", tmp_path / "b.collapsed"]
        for path in paths:
            assert main(
                [
                    "profile", "flame", "page-blocking",
                    "--seed", "2001", "-o", str(path),
                ]
            ) == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        text = first.decode()
        # speedscope-loadable collapsed stacks: "a;b;c <int>" lines
        for line in text.strip().splitlines():
            stack, _, value = line.rpartition(" ")
            assert stack and value.isdigit()

    def test_profile_flame_stdout(self, capsys):
        assert main(["profile", "flame", "extraction", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.strip() and ";" in out

    def test_profile_diff_reports_deltas(self, tmp_path, capsys):
        for name, seed in (("base", "1"), ("cur", "2")):
            assert main(
                [
                    "profile", "run", "extraction", "--trials", "1",
                    "--seed-base", seed, "-o", str(tmp_path / name),
                ]
            ) == 0
        capsys.readouterr()
        assert main(
            [
                "profile", "diff",
                str(tmp_path / "base"), str(tmp_path / "cur"),
            ]
        ) == 0
        assert "delta" in capsys.readouterr().out

    def test_profile_diff_missing_baseline_exits_two(self, tmp_path, capsys):
        assert main(
            [
                "profile", "diff",
                str(tmp_path / "nope"), str(tmp_path / "nope2"),
            ]
        ) == 2
        assert capsys.readouterr().err


class TestCampaignProfileFlag:
    def test_campaign_run_profile_writes_into_run_dir(self, capsys):
        import json
        import os
        from pathlib import Path

        assert main(
            [
                "campaign", "run", "extraction", "--trials", "1",
                "--no-cache", "--quiet", "--run-id", "prof-smoke",
                "--profile",
            ]
        ) == 0
        run_dir = Path(os.environ["BLAP_RUNS_DIR"]) / "prof-smoke"
        profile_dir = run_dir / "profile"
        assert f"profile: {profile_dir}" in capsys.readouterr().err
        assert (profile_dir / "spans.collapsed").read_text().strip()
        summary = json.loads((run_dir / "run.json").read_text())
        profile = summary["profile"]
        assert profile["total_self_s"] <= profile["root_wall_s"] + 1e-9
        assert profile["top_self"]


class TestReportJsonFormat:
    def test_report_format_json(self, tmp_path, capsys):
        import json

        assert main(
            [
                "report", "--trials", "1", "--format", "json",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == 1
        attribution = payload["attribution"]
        assert attribution["total_self_s"] <= attribution["root_wall_s"]
