"""Command-line tools for the BLAP reproduction.

``blap`` bundles the forensic tools as file-based commands, so they
work on any btsnoop capture (including real ones pulled from an
Android bug report) and on raw USB analyzer streams:

* ``blap extract <capture.btsnoop>`` — scan an HCI dump for plaintext
  link keys (the §IV extractor).
* ``blap dump <capture.btsnoop>`` — render the Fig. 12-style frame
  table.
* ``blap usb-extract <stream.bin>`` — BinaryToHex + the ``0b 04 16``
  signature scan (the Fig. 11 pipeline).
* ``blap bin2hex <stream.bin>`` — just the converter.
* ``blap iocap [--version 4.2|5.0]`` — print the Fig. 7 matrix.
* ``blap demo <scenario>`` — run one simulated attack through the
  scenario registry and narrate the outcome (exit 1 on failure).
* ``blap timeline <scenario>`` — run a simulated attack and export the
  merged cross-device timeline as a table, JSONL, or a Chrome trace
  (open in https://ui.perfetto.dev).
* ``blap campaign {run,table1,table2,list}`` — the sharded parallel
  campaign engine: Monte-Carlo sweeps over seed ranges with on-disk
  result caching (``blap campaign table2 --trials 100 --workers 4``
  regenerates the paper's Table II).
* ``blap faults {list,describe}`` — the fault-injection catalogue;
  pair with ``--fault-plan plan.json`` on ``demo``, ``timeline`` and
  ``campaign run`` to sweep scenarios under degraded conditions.
* ``blap detect {list,scan,demo,roc}`` — the streaming detection
  subsystem: replay captures through the detectors, stage monitored
  attacks, and run ROC campaigns (TPR/FPR/latency threshold sweeps).
* ``blap store {ingest,list}`` — the indexed run store: backfill
  ``runs/<run-id>/`` JSONL artifacts into one queryable SQLite
  database (live runs stream in via ``--store`` on ``campaign run``
  and ``timeline``).
* ``blap query {runs,events,alerts,telemetry}`` — typed filters
  (time-range, device/source, span type, detector, seed) with
  pagination and aggregate counts over the store.
* ``blap serve`` — a dependency-free HTTP JSON API and live HTML view
  over the store (``/api/runs``, ``/api/runs/<id>/events``, ...).
* ``blap service {serve,sessions}`` — the detection ingest service:
  live JSONL HCI streams over WebSockets and btsnoop capture uploads,
  scored online with verdicts identical to ``detect scan``.
* ``blap report`` — render the Markdown/HTML/JSON run report (Table
  I/II vs. the paper, Wilson intervals, digest quantiles, self-time
  attribution) from cached campaign results — no re-simulation on a
  warm cache; run telemetry reads through the store.
* ``blap profile {run,flame,diff}`` — deterministic perf attribution:
  profiled campaigns with self-time trees and collapsed flamegraph
  stacks (plus opt-in wall-clock cProfile sampling), byte-identical
  per seed, diffable across revisions.

Wall-clock speed is measured outside the package, by ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.core.types import BluetoothVersion
from repro.host.iocap import render_confirmation_matrix
from repro.snoop.extractor import extract_link_keys
from repro.snoop.hcidump import entries_from_btsnoop, render_dump_table
from repro.snoop.usb_extract import bin2hex, extract_link_keys_from_usb


def _cmd_extract(args: argparse.Namespace) -> int:
    with open(args.capture, "rb") as handle:
        raw = handle.read()
    findings = extract_link_keys(raw)
    if not findings:
        print("no link keys found in the capture")
        return 1
    for finding in findings:
        print(finding)
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    with open(args.capture, "rb") as handle:
        raw = handle.read()
    entries = entries_from_btsnoop(raw)
    print(render_dump_table(entries, include_acl=args.acl, max_rows=args.rows))
    return 0


def _cmd_usb_extract(args: argparse.Namespace) -> int:
    with open(args.stream, "rb") as handle:
        raw = handle.read()
    findings = extract_link_keys_from_usb(raw)
    if not findings:
        print("no '0b 04 16' link key signatures found")
        return 1
    for finding in findings:
        print(finding)
    return 0


def _cmd_bin2hex(args: argparse.Namespace) -> int:
    with open(args.stream, "rb") as handle:
        raw = handle.read()
    print(bin2hex(raw, group=args.group, line_width=args.width))
    return 0


def _cmd_pcap(args: argparse.Namespace) -> int:
    from repro.snoop.pcap import hci_dump_to_pcap

    with open(args.capture, "rb") as handle:
        raw = handle.read()
    pcap = hci_dump_to_pcap(raw)
    with open(args.output, "wb") as handle:
        handle.write(pcap)
    print(f"wrote {len(pcap)} bytes to {args.output}")
    return 0


def _cmd_iocap(args: argparse.Namespace) -> int:
    version = BluetoothVersion(args.version)
    print(render_confirmation_matrix(version))
    return 0


def _cmd_ble_ctkd(args: argparse.Namespace) -> int:
    """Offline CTKD calculator: one key in, the cross-transport key out.

    The BLURtooth pivot in two lines of math — paste a link key
    extracted by ``blap extract`` and read off the victim's LE LTK.
    """
    from repro.crypto.smp import (
        bredr_link_key_from_le_ltk,
        le_ltk_from_bredr_link_key,
    )

    try:
        key = bytes.fromhex(args.key)
    except ValueError:
        print(f"not a hex key: {args.key!r}", file=sys.stderr)
        return 2
    if len(key) != 16:
        print(f"key must be 16 bytes, got {len(key)}", file=sys.stderr)
        return 2
    ct2 = not args.no_ct2
    if args.direction == "bredr-to-le":
        out, label = le_ltk_from_bredr_link_key(key, ct2=ct2), "LE LTK"
    else:
        out, label = bredr_link_key_from_le_ltk(key, ct2=ct2), "BR/EDR link key"
    print(f"input key : {key.hex()}")
    print(f"direction : {args.direction} (ct2={'yes' if ct2 else 'no'})")
    print(f"{label:<10}: {out.hex()}")
    return 0


def _cmd_ble_pair(args: argparse.Namespace) -> int:
    """Demo one LE connection + SC pairing between two catalog devices."""
    from repro.attacks.scenario import WorldConfig, build_world
    from repro.devices.catalog import spec_by_key

    world = build_world(WorldConfig(seed=args.seed))
    try:
        central = world.add_device("central", spec_by_key(args.central))
        peripheral = world.add_device(
            "peripheral", spec_by_key(args.peripheral)
        )
    except KeyError as exc:
        print(f"unknown device key: {exc}", file=sys.stderr)
        return 2
    if central.ble is None or peripheral.ble is None:
        print(
            "both devices must be LE-capable (try galaxy_s21_dual, "
            "nexus_5x_dual, generic_fitness_tracker, ...)",
            file=sys.stderr,
        )
        return 2
    central.power_on()
    peripheral.power_on()
    world.run_for(1.0)
    connect = central.ble.connect(peripheral.bd_addr)
    world.run_for(5.0)
    if not connect.success:
        print(f"LE connect failed (status={connect.status})")
        return 1
    pairing = central.ble.pair(peripheral.bd_addr)
    world.run_for(5.0)
    if not pairing.success:
        print(f"SMP pairing failed (status={pairing.status})")
        return 1
    encryption = central.ble.start_encryption(peripheral.bd_addr)
    world.run_for(2.0)
    ltk = central.ble.security.le_ltk_for(peripheral.bd_addr)
    bredr = central.ble.security.bond_for(peripheral.bd_addr)
    print(f"association : {pairing.result}")
    print(f"LE LTK      : {ltk.hex() if ltk else '(none)'}")
    print(f"encrypted   : {bool(encryption.success)}")
    if bredr is not None and bredr.link_key is not None:
        print(
            f"CTKD        : BR/EDR link key {bredr.link_key.hex()} "
            f"(type {bredr.key_type})"
        )
    else:
        print("CTKD        : not negotiated")
    return 0


# The demos keep the legacy single-run behaviour: full tracing, the
# victim dump captured, discovery running — richer than the lean
# defaults the campaign sweeps use.
_DEMO_PARAMS: Dict[str, Dict[str, Any]] = {
    "page-blocking": {"capture_m_dump": True, "run_discovery": True},
}


def _load_fault_plan(path: Optional[str]):
    """``--fault-plan PATH`` → a :class:`FaultPlan` (or ``None``).

    A missing or malformed plan is an operator error, not a crash:
    fail with one line on stderr and exit status 2 (argparse's own
    usage-error convention) instead of a traceback.
    """
    if not path:
        return None
    from repro.faults import FaultPlan, FaultPlanError

    try:
        return FaultPlan.from_file(path)
    except FileNotFoundError:
        print(f"blap: fault plan not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    except (FaultPlanError, OSError) as exc:
        print(f"blap: bad fault plan {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _load_population(value: Optional[str]):
    """``--population VALUE`` → a :class:`PopulationSpec` (or ``None``).

    ``VALUE`` is a preset name (``blap population list``), a bare
    device count (an ambient crowd of that size), or a path to a spec
    JSON.  Same operator-error convention as :func:`_load_fault_plan`:
    one line on stderr, exit status 2.
    """
    if not value:
        return None
    from repro.population import (
        PopulationError,
        PopulationSpec,
        ambient_spec,
        get_population,
        population_names,
    )

    try:
        count = int(value)
    except ValueError:
        pass
    else:
        if count <= 0:
            print(
                f"blap: population size must be positive: {value}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return ambient_spec(count)
    if os.sep in value or value.endswith(".json"):
        try:
            return PopulationSpec.from_file(value)
        except FileNotFoundError:
            print(f"blap: population spec not found: {value}", file=sys.stderr)
            raise SystemExit(2)
        except (PopulationError, OSError) as exc:
            print(f"blap: bad population spec {value}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    try:
        return get_population(value)
    except PopulationError:
        known = ", ".join(population_names())
        print(
            f"blap: unknown population {value!r} "
            f"(presets: {known}; or pass a count or a spec JSON path)",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _run_demo_world(
    scenario_name: str, seed: int, params=None, fault_plan=None, population=None
):
    """One narrated run: fresh world, unbounded tracer, isolated metrics.

    Returns ``(world, TrialResult)`` so callers can also export the
    timeline.  An isolated registry keeps the run deterministic per
    seed and independent of anything else the process has counted.
    """
    from repro.attacks.scenario import WorldConfig, build_world
    from repro.campaign import TrialConfig, get_scenario
    from repro.obs.metrics import MetricsRegistry

    world = build_world(
        WorldConfig(
            seed=seed,
            registry=MetricsRegistry(),
            fault_plan=fault_plan,
            population=population,
        )
    )
    scenario = get_scenario(scenario_name)
    merged = dict(_DEMO_PARAMS.get(scenario_name, {}))
    merged.update(params or {})
    config = TrialConfig(seed=seed, params=merged)
    return world, scenario.build(world, config).run()


def _narrate_extraction(detail: Dict[str, Any]) -> None:
    print(f"channel       : {detail['extraction_channel']}")
    print(f"su required   : {detail['su_required']}")
    print(f"extracted key : {detail['extracted_key']}")
    print(f"matches truth : {detail['extraction_success']}")
    print(f"validated     : {detail['validated_against_m']}")


def _narrate_page_blocking(detail: Dict[str, Any]) -> None:
    print(f"MITM connection : {detail['mitm_connection']}")
    print(f"paired          : {detail['paired']}")
    print(f"just works      : {detail['downgraded_to_just_works']}")
    if "m_dump_table" in detail:
        print(detail["m_dump_table"])


def _narrate_exfiltration(detail: Dict[str, Any]) -> None:
    if not detail.get("extraction_success"):
        print("extraction failed")
        return
    print(f"phonebook entries stolen: {len(detail['phonebook'])}")
    for contact in detail["phonebook"]:
        print(f"  {contact['name']}: {contact['phone']}")
    print(f"messages stolen: {len(detail['messages'])}")
    for message in detail["messages"]:
        print(f"  from {message['sender']}: {message['body']}")
    print(f"silent (no popup on victim): {detail['silent']}")


_NARRATORS = {
    "extraction": _narrate_extraction,
    "page-blocking": _narrate_page_blocking,
    "exfiltration": _narrate_exfiltration,
}


def _cmd_demo(args: argparse.Namespace) -> int:
    _, result = _run_demo_world(
        args.scenario,
        args.seed,
        dict(args.param or []),
        fault_plan=_load_fault_plan(args.fault_plan),
        population=_load_population(args.population),
    )
    narrator = _NARRATORS.get(args.scenario)
    if narrator is not None:
        narrator(result.detail)
    else:
        for key, value in result.detail.items():
            print(f"{key}: {value}")
    print(f"outcome : {result.outcome}")
    print(f"success : {result.success}")
    if result.error:
        print(f"error   : {result.error}", file=sys.stderr)
    return 0 if result.success else 1


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.timeline import (
        export_chrome_trace,
        render_timeline_table,
        write_jsonl,
    )

    world, _ = _run_demo_world(
        args.scenario,
        args.seed,
        fault_plan=_load_fault_plan(args.fault_plan),
        population=_load_population(args.population),
    )
    events = world.obs.timeline.events(
        sources=args.source or None, categories=args.category or None
    )
    if args.limit is not None:
        events = events[: args.limit]
    if args.store is not None:
        from repro.store import RunStore, store_events

        with RunStore(args.store or None) as store:
            counts = store_events(
                store,
                args.run_id or f"timeline-{args.scenario}-{args.seed}",
                events,
                scenario=args.scenario,
                seed=args.seed,
            )
        print(
            f"stored {counts['events']} events "
            f"({counts['alerts']} alerts) in {store.path}",
            file=sys.stderr,
        )
    if args.format == "jsonl":
        # Streamed straight to the sink — no whole-timeline string.
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                count = write_jsonl(events, handle)
            print(f"wrote {count} events to {args.output}")
        else:
            write_jsonl(events, sys.stdout)
        return 0
    if args.format == "table":
        text = render_timeline_table(events)
    else:  # chrome
        text = json.dumps(export_chrome_trace(events), indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(events)} events to {args.output}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------- campaigns


def _parse_param(raw: str) -> "tuple[str, Any]":
    """``key=value`` with JSON values (bare words stay strings)."""
    key, sep, value = raw.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {raw!r}"
        )
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _make_runner(args: argparse.Namespace, telemetry=None, cprofile_dir=None):
    from repro.campaign import CampaignRunner, ResultCache, default_cache_dir

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
        cache = ResultCache(cache_dir)
    return CampaignRunner(
        workers=args.workers,
        timeout_s=args.timeout,
        max_attempts=args.retries + 1,
        cache=cache,
        telemetry=telemetry,
        cprofile_dir=cprofile_dir,
    )


def _campaign_summary(result) -> str:
    cache_note = (
        f", cache {result.cache_hits} hit / {result.cache_misses} miss"
        if result.cache_hits or result.cache_misses
        else ""
    )
    return (
        f"{result.spec.scenario}: {result.successes}/{result.trials} "
        f"succeeded ({result.success_rate:.0%}) in "
        f"{result.wall_time_s:.2f}s{cache_note}"
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, CampaignTelemetry

    params = dict(args.param or [])
    spec = CampaignSpec(
        args.scenario,
        seeds=range(args.seed_base, args.seed_base + args.trials),
        params=params,
        fault_plan=_load_fault_plan(args.fault_plan),
        population=_load_population(args.population),
    )
    telemetry = None
    store = None
    if not args.no_telemetry:
        sink = None
        if args.store is not None:
            from repro.campaign.telemetry import new_run_id
            from repro.store import RunStore, StoreTelemetrySink

            store = RunStore(args.store or None)
            sink = StoreTelemetrySink(store, args.run_id or new_run_id())
        # Progress goes to stderr (``--json`` keeps stdout clean); the
        # live carriage-return line degrades to periodic plain lines on
        # non-TTY streams, or to start/end lines only under --quiet.
        telemetry = CampaignTelemetry(
            run_id=sink.run_id if sink is not None else args.run_id,
            mode="quiet" if args.quiet else "auto",
            sink=sink,
        )
    profile_dir = None
    if args.profile or args.cprofile:
        from pathlib import Path

        profile_dir = (
            telemetry.run_dir / "profile"
            if telemetry is not None
            else Path("blap-profile")
        )
    cprofile_dir = profile_dir if args.cprofile else None
    profile_extra = None
    try:
        result = _make_runner(
            args, telemetry=telemetry, cprofile_dir=cprofile_dir
        ).run(spec)
        if profile_dir is not None:
            from repro.profile import write_profile_artifacts

            profile_extra = write_profile_artifacts(
                result.metrics.snapshot(),
                profile_dir,
                shard_pstats_dir=cprofile_dir,
            )
            print(f"profile: {profile_dir}", file=sys.stderr)
    finally:
        if telemetry is not None:
            # The profile summary rides run.json and the store sink;
            # the on-disk tree already lives in profile/profile.json.
            extra = None
            if profile_extra is not None:
                extra = {
                    "profile": {
                        key: profile_extra[key]
                        for key in ("top_self", "total_self_s", "root_wall_s")
                    }
                }
            telemetry.close(extra=extra)
            print(f"telemetry: {telemetry.path}", file=sys.stderr)
        if store is not None:
            print(f"store: {store.path}", file=sys.stderr)
            store.close()
    if args.json:
        print(
            json.dumps(
                {
                    "scenario": args.scenario,
                    "trials": result.trials,
                    "successes": result.successes,
                    "success_rate": result.success_rate,
                    "wall_time_s": result.wall_time_s,
                    "cache_hits": result.cache_hits,
                    "cache_misses": result.cache_misses,
                    "results": [r.to_dict() for r in result.results],
                },
                indent=1,
            )
        )
    else:
        print(_campaign_summary(result))
        for trial in result.errors:
            print(f"  seed {trial.seed}: {trial.error}", file=sys.stderr)
    return 1 if result.errors else 0


def _cmd_campaign_table1(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec
    from repro.devices.catalog import TABLE1_DEVICE_SPECS

    runner = _make_runner(args)
    rows = []
    for index, spec in enumerate(TABLE1_DEVICE_SPECS):
        campaign = runner.run(
            CampaignSpec(
                "extraction",
                seeds=[args.seed_base + index],
                params={"c_spec": spec.key},
            )
        )
        rows.append((spec, campaign.results[0]))

    print(
        "Table I: devices vulnerable to link key extraction attack "
        f"(seed base {args.seed_base})"
    )
    header = (
        f"{'OS':<14} {'Host stack':<14} {'Device':<42} "
        f"{'Channel':<10} {'SU':<4} {'Vulnerable'}"
    )
    print(header)
    print("-" * len(header))
    all_vulnerable = True
    for spec, trial in rows:
        detail = trial.detail
        vulnerable = trial.success
        all_vulnerable = all_vulnerable and vulnerable
        print(
            f"{spec.os:<14} {spec.stack_profile.name:<14} "
            f"{spec.marketing_name:<42} "
            f"{detail.get('extraction_channel', '?'):<10} "
            f"{'Y' if detail.get('su_required') else 'N':<4} "
            f"{'YES' if vulnerable else 'no'}"
        )
    return 0 if all_vulnerable else 1


def _cmd_campaign_table2(args: argparse.Namespace) -> int:
    import time as _time

    from repro.campaign import CampaignSpec
    from repro.devices.catalog import TABLE2_DEVICE_SPECS

    runner = _make_runner(args)
    started = _time.perf_counter()
    rows = []
    hits = misses = 0
    for index, spec in enumerate(TABLE2_DEVICE_SPECS):
        base = args.seed_base + index * 10_000
        baseline = runner.run(
            CampaignSpec(
                "baseline-race",
                seeds=range(base, base + args.trials),
                params={"m_spec": spec.key},
            )
        )
        blocked = runner.run(
            CampaignSpec(
                "page-blocking",
                seeds=range(base + 50_000, base + 50_000 + args.trials),
                params={"m_spec": spec.key},
            )
        )
        hits += baseline.cache_hits + blocked.cache_hits
        misses += baseline.cache_misses + blocked.cache_misses
        rows.append((spec, baseline.success_rate, blocked.success_rate))
    wall = _time.perf_counter() - started

    print(
        f"Table II: MITM connection success rates "
        f"({args.trials} trials/cell, {args.workers} workers)"
    )
    header = f"{'Device':<28} {'w/o blocking':<13} {'with blocking'}"
    print(header)
    print("-" * len(header))
    # The baseline race is a scan-phase coin flip; with few trials the
    # binomial noise around the paper's 42-60% band widens accordingly.
    low, high = (0.30, 0.70) if args.trials >= 50 else (0.125, 0.875)
    verdict = True
    for spec, baseline, blocked in rows:
        flag = ""
        if blocked != 1.0:
            verdict = False
            flag = "  <-- page blocking not deterministic?!"
        elif not low <= baseline <= high:
            verdict = False
            flag = "  <-- baseline outside the race band"
        print(
            f"{spec.marketing_name + ' (' + spec.os + ')':<28} "
            f"{baseline:>10.0%}   {blocked:>10.0%}{flag}"
        )
    print(
        f"\n{len(rows) * 2 * args.trials} trials in {wall:.2f}s"
        + (f" (cache: {hits} hit / {misses} miss)" if hits or misses else "")
    )
    print(
        "paper: 42-60% without page blocking, 100% with — "
        + ("reproduced" if verdict else "NOT reproduced")
    )
    return 0 if verdict else 1


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from repro.campaign import get_scenario, scenario_names

    for name in scenario_names():
        scenario = get_scenario(name)
        print(f"{name:<16} {scenario.description}")
        if args.verbose:
            for key, value in sorted(scenario.default_params.items()):
                print(f"    {key} = {value!r}")
    return 0


# ---------------------------------------------------------------- faults


def _cmd_faults_list(args: argparse.Namespace) -> int:
    from repro.faults import INJECTION_POINTS

    for point in INJECTION_POINTS.values():
        modes = ",".join(point.modes)
        print(f"{point.name:<24} {point.scope:<7} {modes}")
        if args.verbose:
            print(f"    {point.description}")
            for key, doc in sorted(point.params.items()):
                print(f"    param {key}: {doc}")
    return 0


def _cmd_faults_describe(args: argparse.Namespace) -> int:
    from repro.faults import get_point

    try:
        point = get_point(args.point)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    print(f"name        : {point.name}")
    print(f"layer       : {point.layer}")
    print(f"scope       : {point.scope}")
    print(f"modes       : {', '.join(point.modes)}")
    print(f"description : {point.description}")
    if point.params:
        print("params      :")
        for key, doc in sorted(point.params.items()):
            print(f"  {key}: {doc}")
    else:
        print("params      : (none)")
    return 0


# ---------------------------------------------------------------- populations


def _cmd_population_list(args: argparse.Namespace) -> int:
    from repro.population import get_population, population_names

    for name in population_names():
        spec = get_population(name)
        print(f"{name:<16} {spec.total_devices:>4} devices  {spec.description}")
        if args.verbose:
            for member in spec.members:
                print(f"    cast {member.role}: {member.spec}")
            if spec.size:
                print(
                    f"    ambient {spec.size}: "
                    f"inquirers {spec.inquirer_fraction:.0%}, "
                    f"talkers {spec.talker_fraction:.0%}, "
                    f"discoverable {spec.discoverable_fraction:.0%}"
                )
    return 0


def _cmd_population_describe(args: argparse.Namespace) -> int:
    from repro.population import PopulationError, get_population

    try:
        spec = get_population(args.name)
    except PopulationError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(spec.to_jsonable(), indent=1, sort_keys=True))
        return 0
    print(f"name          : {spec.name}")
    print(f"description   : {spec.description}")
    print(f"total devices : {spec.total_devices}")
    if spec.members:
        print("cast          :")
        for member in spec.members:
            flags = []
            if not member.connectable:
                flags.append("non-connectable")
            if not member.discoverable:
                flags.append("non-discoverable")
            note = f" ({', '.join(flags)})" if flags else ""
            print(f"  {member.role}: {member.spec}{note}")
    if spec.size:
        print(f"ambient       : {spec.size} devices")
        print("mix           :")
        for key, weight in spec.resolved_mix():
            print(f"  {key}: {weight:.3f}")
        print(f"inquirers     : {spec.inquirer_fraction:.0%}")
        print(f"talkers       : {spec.talker_fraction:.0%}")
        print(f"discoverable  : {spec.discoverable_fraction:.0%}")
        print(f"inquiry period: {spec.inquiry_period_s}s")
        print(f"connect period: {spec.connect_period_s}s")
    return 0


# ---------------------------------------------------------------- detection


def _cmd_detect_list(args: argparse.Namespace) -> int:
    from repro.detect import detector_class, detector_names

    for name in detector_names():
        cls = detector_class(name)
        print(f"{name:<18} [{','.join(cls.channels)}] {cls.description}")
        if args.verbose:
            for key, value in sorted(cls.default_config.items()):
                print(f"    {key} = {value!r}")
    return 0


def _cmd_detect_scan(args: argparse.Namespace) -> int:
    from repro.detect import replay_capture
    from repro.service.protocol import CaptureError, decode_capture

    if args.capture == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(args.capture, "rb") as handle:
            raw = handle.read()
    try:
        decode_capture(raw)
    except CaptureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = replay_capture(raw, detectors=args.detector or None)
    if not result.alerts:
        print("no detector alerts in the capture")
        return 1
    for alert in result.alerts:
        print(alert)
    return 0


def _cmd_detect_demo(args: argparse.Namespace) -> int:
    from repro.campaign.detection import DETECTOR_FOR_ATTACK
    from repro.campaign.runner import run_trial

    result, _ = run_trial(
        "detection-attack",
        args.seed,
        params={"attack": args.attack, "respond": args.respond},
        fault_plan=_load_fault_plan(args.fault_plan),
    )
    detail = result.detail
    print(f"attack            : {args.attack}")
    print(f"expected detector : {DETECTOR_FOR_ATTACK[args.attack]}")
    print(f"attack succeeded  : {detail.get('attack_succeeded')}")
    for name, score in sorted(detail.get("scores", {}).items()):
        first = detail.get("first_alert_s", {}).get(name)
        when = f" (first alert at t={first:.3f}s)" if first is not None else ""
        print(f"  {name:<18} max score {score:.2f}{when}")
    print(f"alerts  : {detail.get('alerts')}")
    print(f"outcome : {result.outcome}")
    if result.error:
        print(f"error   : {result.error}", file=sys.stderr)
        return 1
    return 0 if result.success else 1


def _cmd_detect_roc(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec
    from repro.campaign.detection import DETECTOR_FOR_ATTACK
    from repro.detect import operating_point, render_roc_table, roc_curve

    fault_plan = _load_fault_plan(args.fault_plan)
    attacks = args.attack or sorted(DETECTOR_FOR_ATTACK)
    runner = _make_runner(args)

    campaigns = {}
    for index, attack in enumerate(attacks):
        base = args.seed_base + index * 10_000
        campaigns[attack] = runner.run(
            CampaignSpec(
                "detection-attack",
                seeds=range(base, base + args.trials),
                params={"attack": attack},
                fault_plan=fault_plan,
            )
        )
    benign = runner.run(
        CampaignSpec(
            "detection-benign",
            seeds=range(
                args.seed_base + 100_000,
                args.seed_base + 100_000 + args.trials,
            ),
            fault_plan=fault_plan,
        )
    )

    errors = list(benign.errors)
    for campaign in campaigns.values():
        errors.extend(campaign.errors)
    for trial in errors:
        print(
            f"  {trial.scenario} seed {trial.seed}: {trial.error}",
            file=sys.stderr,
        )

    benign_details = [r.detail for r in benign.results if not r.error]
    report = {}
    verdict = True
    for attack in attacks:
        detector = DETECTOR_FOR_ATTACK[attack]
        attack_details = [
            r.detail for r in campaigns[attack].results if not r.error
        ]
        points = roc_curve(attack_details, benign_details, detector)
        best = operating_point(points, max_fpr=args.max_fpr)
        report[detector] = {
            "attack": attack,
            "points": [p.to_dict() for p in points],
            "operating_point": best.to_dict() if best else None,
        }
        if best is None or best.tpr < args.min_tpr:
            verdict = False
        if not args.json:
            print(
                f"\n{detector} "
                f"({len(attack_details)} attack / "
                f"{len(benign_details)} benign trials)"
            )
            print(render_roc_table(points))
            if best is None:
                print(f"no operating point with FPR <= {args.max_fpr:.0%}")
            else:
                print(
                    f"operating point: threshold {best.threshold:.2f} -> "
                    f"TPR {best.tpr:.0%} at FPR {best.fpr:.0%}"
                )
    if args.json:
        print(json.dumps(report, indent=1))
    if errors:
        return 1
    if fault_plan is not None:
        # Robustness probes report degradation; they do not gate.
        return 0
    return 0 if verdict else 1


# ------------------------------------------------------------------- store


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.runs import discover_run_dirs
    from repro.store import RunStore, ingest_run_dir

    run_dirs = [Path(d) for d in args.run_dir] or discover_run_dirs()
    if not run_dirs:
        print("blap: no run directories to ingest", file=sys.stderr)
        return 1
    with RunStore(args.db or None) as store:
        for run_dir in run_dirs:
            counts = ingest_run_dir(store, run_dir)
            print(
                f"{run_dir.name}: {counts['telemetry']} telemetry, "
                f"{counts['events']} events, {counts['alerts']} alerts"
            )
        print(f"store: {store.path}")
    return 0


def _cmd_store_list(args: argparse.Namespace) -> int:
    from repro.store import EventQuery, RunStore

    with RunStore(args.db or None) as store:
        infos = store.runs()
        if args.json:
            print(
                json.dumps(
                    [
                        dict(
                            info.to_dict(),
                            telemetry=store.telemetry_summary(info.run_id),
                            events=store.count_events(
                                EventQuery(run_id=info.run_id)
                            ),
                        )
                        for info in infos
                    ],
                    indent=1,
                )
            )
            return 0
        if not infos:
            print(f"no runs in {store.path}")
            return 0
        for info in infos:
            rollup = store.telemetry_summary(info.run_id)
            events = store.count_events(EventQuery(run_id=info.run_id))
            print(
                f"{info.run_id:<28} {rollup['trials']:>6} trials "
                f"{rollup['successes']:>6} ok {rollup['errors']:>4} err "
                f"{events:>8} events"
            )
    return 0


def _cmd_query_events(args: argparse.Namespace) -> int:
    from repro.store import EventQuery, RunStore

    query = EventQuery(
        run_id=args.run,
        since=args.since,
        until=args.until,
        sources=tuple(args.source or ()),
        categories=tuple(args.category or ()),
        kind=args.kind,
        span_type=args.span_type,
        scenario=args.scenario,
        seed=args.seed,
        limit=args.limit,
        offset=args.offset,
    )
    with RunStore(args.db or None) as store:
        if args.count or args.group_by:
            result = store.count_events(query, group_by=args.group_by)
            if args.json:
                print(json.dumps(result, indent=1))
            elif isinstance(result, dict):
                for key, value in result.items():
                    print(f"{key:<20} {value}")
            else:
                print(result)
            return 0
        events = store.query_events(query)
        if args.json:
            print(json.dumps([e.to_dict() for e in events], indent=1))
            return 0
        for event in events:
            duration = (
                f"  ({event.duration * 1000:.3f} ms)"
                if event.duration is not None
                else ""
            )
            print(
                f"{event.time:>12.6f} {event.source:<8} "
                f"{event.category:<14} {event.message}{duration}"
            )
    return 0


def _cmd_query_alerts(args: argparse.Namespace) -> int:
    from repro.store import AlertQuery, RunStore

    query = AlertQuery(
        run_id=args.run,
        since=args.since,
        until=args.until,
        detectors=tuple(args.detector or ()),
        min_score=args.min_score,
        peer=args.peer,
        scenario=args.scenario,
        seed=args.seed,
        limit=args.limit,
        offset=args.offset,
    )
    with RunStore(args.db or None) as store:
        alerts = store.query_alerts(query)
    if args.json:
        print(json.dumps(alerts, indent=1))
        return 0
    for alert in alerts:
        score = (
            f" score={alert['score']:.2f}"
            if alert.get("score") is not None
            else ""
        )
        peer = f" peer={alert['peer']}" if alert.get("peer") else ""
        print(
            f"{alert['time']:>12.6f} [{alert['detector']}]"
            f"{score}{peer} {alert['message']}"
        )
    return 0


_YESNO = {"yes": True, "no": False}


def _cmd_query_telemetry(args: argparse.Namespace) -> int:
    from repro.store import RunStore, TelemetryQuery

    query = TelemetryQuery(
        run_id=args.run,
        scenario=args.scenario,
        seed=args.seed,
        success=_YESNO.get(args.success),
        cached=_YESNO.get(args.cached),
        errors_only=args.errors_only,
        limit=args.limit,
        offset=args.offset,
    )
    with RunStore(args.db or None) as store:
        records = store.query_telemetry(query)
    if args.json:
        print(json.dumps(records, indent=1))
        return 0
    for record in records:
        status = "ok" if record.get("success") else "fail"
        extras = []
        if record.get("cached"):
            extras.append("cached")
        if record.get("error"):
            extras.append(f"error={record['error']}")
        suffix = (" " + " ".join(extras)) if extras else ""
        print(
            f"{record.get('scenario')} seed {record.get('seed')}: "
            f"{status} {record.get('wall_time_s', 0.0):.3f}s{suffix}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.store import RunStore
    from repro.store.server import serve

    with RunStore(args.db or None) as store:

        def _ready(server) -> None:
            # Flushed immediately so scripts (CI smoke jobs) can scrape
            # the bound URL even with --port 0 (ephemeral).
            print(f"serving {store.path} at {server.url}", flush=True)

        serve(
            store,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            ready=_ready,
        )
    return 0


# ----------------------------------------------------------------- service


def _cmd_service_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server
    from repro.service.session import SessionConfig

    defaults = SessionConfig(
        window=args.window, queue_size=args.queue_size
    )

    def _ready(server) -> None:
        # Flushed immediately so scripts (CI smoke jobs) can scrape
        # the bound URL even with --port 0 (ephemeral).
        print(f"ingest service at {server.url} (ws: {server.ws_url})",
              flush=True)

    if args.db is None:
        run_server(
            host=args.host,
            port=args.port,
            idle_timeout_s=args.idle_timeout,
            defaults=defaults,
            verbose=args.verbose,
            ready=_ready,
        )
        return 0
    from repro.store import RunStore

    with RunStore(args.db or None) as store:
        run_server(
            host=args.host,
            port=args.port,
            store=store,
            idle_timeout_s=args.idle_timeout,
            defaults=defaults,
            verbose=args.verbose,
            ready=_ready,
        )
    return 0


def _cmd_service_sessions(args: argparse.Namespace) -> int:
    from repro.service.client import fetch_json

    base = args.url.rstrip("/")
    try:
        payload = fetch_json(f"{base}/api/sessions")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sessions = payload.get("sessions", [])
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not sessions:
        print("no active sessions")
        return 0
    for row in sessions:
        print(
            f"{row.get('session')} tenant={row.get('tenant')} "
            f"state={row.get('state')} events={row.get('events')} "
            f"alerts={row.get('alerts')} "
            f"dropped={row.get('dropped_events')}"
        )
    return 0


# ------------------------------------------------------------------ report


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import generate_report

    fmt = args.format or ("html" if args.html else None)
    text = generate_report(
        _make_runner(args),
        trials=args.trials,
        seed_base=args.seed_base,
        table1_seed_base=args.table1_seed_base,
        roc_path=args.roc,
        run_dir=args.run_dir,
        store_path=args.store_db,
        store_run_id=args.store_run,
        top_spans=args.top_spans,
        fmt=fmt,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report to {args.output}")
    else:
        print(text, end="")
    return 0


# ----------------------------------------------------------------- profile


def _format_path(path) -> str:
    return ";".join(path)


def _print_top_self(rows, total_self_s: float, root_wall_s: float) -> None:
    print(f"{'self total':>12} {'count':>8}  span type")
    for row in rows:
        print(
            f"{row['self_s']:>11.3f}s {row['count']:>8}  {row['name']}"
        )
    print(
        f"self-time total {total_self_s:.3f}s; "
        f"root-span wall total {root_wall_s:.3f}s"
    )


def _cmd_profile_run(args: argparse.Namespace) -> int:
    """A profiled campaign sweep: artifacts out, top self-time in."""
    from pathlib import Path

    from repro.campaign import CampaignSpec
    from repro.profile import write_profile_artifacts

    spec = CampaignSpec(
        args.scenario,
        seeds=range(args.seed_base, args.seed_base + args.trials),
        params=dict(args.param or []),
        fault_plan=_load_fault_plan(args.fault_plan),
        population=_load_population(args.population),
    )
    out = Path(args.out)
    cprofile_dir = out if args.cprofile else None
    result = _make_runner(args, cprofile_dir=cprofile_dir).run(spec)
    summary = write_profile_artifacts(
        result.metrics.snapshot(),
        out,
        shard_pstats_dir=cprofile_dir,
        top=args.top,
    )
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(_campaign_summary(result))
        _print_top_self(
            summary["top_self"],
            summary["total_self_s"],
            summary["root_wall_s"],
        )
        print(f"profile artifacts in {out}/")
    return 1 if result.errors else 0


def _cmd_profile_flame(args: argparse.Namespace) -> int:
    """One trial's self-time tree as collapsed flamegraph stacks.

    Pure simulated time: the output is byte-identical for a given
    scenario + seed, so two runs diff clean.  Feed the file to
    ``flamegraph.pl`` or paste it into https://speedscope.app.
    """
    from repro.campaign.runner import run_trial
    from repro.profile import SelfTimeTree

    result, snapshot = run_trial(
        args.scenario,
        args.seed,
        params=dict(args.param or []),
        fault_plan=_load_fault_plan(args.fault_plan),
    )
    text = SelfTimeTree.from_snapshot(snapshot).to_collapsed()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} stacks to {args.output}")
    else:
        print(text, end="")
    if result.error:
        print(f"trial error: {result.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_profile_diff(args: argparse.Namespace) -> int:
    """Diff two profile.json artifacts by per-path self-time."""
    from repro.profile import SelfTimeTree, diff_trees, load_profile

    try:
        baseline = SelfTimeTree.from_jsonable(
            load_profile(args.baseline)["tree"]
        )
        current = SelfTimeTree.from_jsonable(
            load_profile(args.current)["tree"]
        )
    except (OSError, ValueError, KeyError) as exc:
        print(f"blap: {exc}", file=sys.stderr)
        return 2
    rows = diff_trees(baseline, current)
    if args.top:
        rows = rows[: args.top]
    if args.json:
        print(
            json.dumps(
                [dict(row, path=list(row["path"])) for row in rows],
                indent=1,
                sort_keys=True,
            )
        )
        return 0
    if not rows:
        print("identical self-time trees")
        return 0
    print(f"{'baseline':>12} {'current':>12} {'delta':>12}  span path")
    for row in rows:
        print(
            f"{row['baseline_self_s']:>11.3f}s "
            f"{row['current_self_s']:>11.3f}s "
            f"{row['delta_s']:>+11.3f}s  {_format_path(row['path'])}"
        )
    return 0


def _add_fault_plan_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN.json",
        help="JSON fault plan to inject (see `blap faults list`)",
    )


def _add_population_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--population",
        default=None,
        metavar="PRESET|N|SPEC.json",
        help="ambient device population: a preset name "
        "(see `blap population list`), a device count, or a spec JSON",
    )


def _add_campaign_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="per-trial seconds"
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="retries with a fresh world after a failed/timed-out trial",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $BLAP_CACHE_DIR or .blap-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blap",
        description="BLAP reproduction tools (DSN 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="link keys from a btsnoop capture")
    extract.add_argument("capture", help="btsnoop file (e.g. btsnoop_hci.log)")
    extract.set_defaults(func=_cmd_extract)

    dump = sub.add_parser("dump", help="render a btsnoop capture as a table")
    dump.add_argument("capture")
    dump.add_argument("--acl", action="store_true", help="include ACL frames")
    dump.add_argument("--rows", type=int, default=None, help="row limit")
    dump.set_defaults(func=_cmd_dump)

    usb = sub.add_parser("usb-extract", help="link keys from a raw USB stream")
    usb.add_argument("stream")
    usb.set_defaults(func=_cmd_usb_extract)

    b2h = sub.add_parser("bin2hex", help="binary to hex text (BinaryToHex)")
    b2h.add_argument("stream")
    b2h.add_argument("--group", type=int, default=1)
    b2h.add_argument("--width", type=int, default=16)
    b2h.set_defaults(func=_cmd_bin2hex)

    pcap = sub.add_parser(
        "pcap", help="convert a btsnoop capture to Wireshark pcap"
    )
    pcap.add_argument("capture")
    pcap.add_argument("-o", "--output", required=True)
    pcap.set_defaults(func=_cmd_pcap)

    iocap = sub.add_parser("iocap", help="print the Fig. 7 mapping")
    iocap.add_argument(
        "--version",
        default="5.0",
        choices=[v.value for v in BluetoothVersion],
    )
    iocap.set_defaults(func=_cmd_iocap)

    ble = sub.add_parser(
        "ble", help="LE layer utilities (CTKD math, pairing demo)"
    )
    blesub = ble.add_subparsers(dest="ble_cmd", required=True)
    ctkd = blesub.add_parser(
        "ctkd", help="convert a key across transports (h6/h7)"
    )
    ctkd.add_argument("key", help="16-byte key as 32 hex chars")
    ctkd.add_argument(
        "--direction",
        default="bredr-to-le",
        choices=["bredr-to-le", "le-to-bredr"],
    )
    ctkd.add_argument(
        "--no-ct2",
        action="store_true",
        help="legacy h7-less derivation (CT2 bit unset)",
    )
    ctkd.set_defaults(func=_cmd_ble_ctkd)
    blepair = blesub.add_parser(
        "pair", help="LE connect + SC pairing between two catalog devices"
    )
    blepair.add_argument("--central", default="galaxy_s21_dual")
    blepair.add_argument("--peripheral", default="nexus_5x_dual")
    blepair.add_argument("--seed", type=int, default=1)
    blepair.set_defaults(func=_cmd_ble_pair)

    from repro.campaign import scenario_names

    demo = sub.add_parser("demo", help="run a simulated attack end to end")
    demo.add_argument("scenario", choices=scenario_names())
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        metavar="KEY=VALUE",
        help="scenario parameter override (repeatable)",
    )
    _add_fault_plan_arg(demo)
    _add_population_arg(demo)
    demo.set_defaults(func=_cmd_demo)

    timeline = sub.add_parser(
        "timeline",
        help="run a simulated attack and export the merged timeline",
    )
    timeline.add_argument("scenario", choices=scenario_names())
    timeline.add_argument("--seed", type=int, default=1)
    timeline.add_argument(
        "--format",
        default="table",
        choices=["table", "jsonl", "chrome"],
        help="table for terminals, jsonl for tooling, chrome for Perfetto",
    )
    timeline.add_argument("-o", "--output", default=None, help="output file")
    timeline.add_argument(
        "--limit", type=int, default=None, help="cap the number of events"
    )
    timeline.add_argument(
        "--source",
        action="append",
        default=None,
        help="only these sources (repeatable; e.g. phy, M, A)",
    )
    timeline.add_argument(
        "--category",
        action="append",
        default=None,
        help="only these categories (repeatable; e.g. phy-page, span)",
    )
    timeline.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="DB",
        help="also write the events (and any alerts) into the run store "
        "(bare --store uses $BLAP_STORE_DB or <runs root>/store.db)",
    )
    timeline.add_argument(
        "--run-id",
        default=None,
        help="store run id (default: timeline-<scenario>-<seed>)",
    )
    _add_fault_plan_arg(timeline)
    _add_population_arg(timeline)
    timeline.set_defaults(func=_cmd_timeline)

    campaign = sub.add_parser(
        "campaign",
        help="sharded parallel Monte-Carlo sweeps (Table I/II scale)",
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    run = csub.add_parser("run", help="sweep one scenario over a seed range")
    run.add_argument("scenario", choices=scenario_names())
    run.add_argument("--trials", type=int, default=20)
    run.add_argument("--seed-base", type=int, default=0)
    run.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        metavar="KEY=VALUE",
        help="scenario parameter (JSON value; repeatable)",
    )
    run.add_argument("--json", action="store_true", help="machine output")
    run.add_argument(
        "--quiet",
        action="store_true",
        help="progress start/end lines only (CI-friendly)",
    )
    run.add_argument(
        "--run-id",
        default=None,
        help="telemetry run id (default: timestamp-pid)",
    )
    run.add_argument(
        "--no-telemetry",
        action="store_true",
        help="skip the runs/<run-id>/telemetry.jsonl stream",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="write deterministic self-time profile artifacts "
        "(runs/<run-id>/profile/, or ./blap-profile with --no-telemetry)",
    )
    run.add_argument(
        "--cprofile",
        action="store_true",
        help="also sample workers with cProfile (wall clock; implies "
        "--profile; merged into profile.pstats / cprofile.json)",
    )
    run.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="DB",
        help="stream per-trial telemetry into the run store as trials "
        "finish (bare --store uses the default database)",
    )
    _add_fault_plan_arg(run)
    _add_population_arg(run)
    _add_campaign_common(run)
    run.set_defaults(func=_cmd_campaign_run)

    table1 = csub.add_parser(
        "table1", help="regenerate Table I (link key extraction fleet)"
    )
    table1.add_argument("--seed-base", type=int, default=1000)
    _add_campaign_common(table1)
    table1.set_defaults(func=_cmd_campaign_table1)

    table2 = csub.add_parser(
        "table2", help="regenerate Table II (MITM rates, both conditions)"
    )
    table2.add_argument("--trials", type=int, default=20)
    table2.add_argument("--seed-base", type=int, default=2000)
    _add_campaign_common(table2)
    table2.set_defaults(func=_cmd_campaign_table2)

    listing = csub.add_parser("list", help="registered scenarios")
    listing.add_argument(
        "-v", "--verbose", action="store_true", help="show default params"
    )
    listing.set_defaults(func=_cmd_campaign_list)

    detect = sub.add_parser(
        "detect", help="streaming attack detection and ROC evaluation"
    )
    dsub = detect.add_subparsers(dest="detect_command", required=True)

    dlist = dsub.add_parser("list", help="registered detectors")
    dlist.add_argument(
        "-v", "--verbose", action="store_true", help="show default config"
    )
    dlist.set_defaults(func=_cmd_detect_list)

    dscan = dsub.add_parser(
        "scan", help="replay a btsnoop capture through the detectors"
    )
    dscan.add_argument("capture", help="btsnoop file (- reads stdin)")
    dscan.add_argument(
        "--detector",
        action="append",
        default=None,
        help="only these detectors (repeatable; default: all HCI-capable)",
    )
    dscan.set_defaults(func=_cmd_detect_scan)

    ddemo = dsub.add_parser(
        "demo", help="stage one monitored attack and print detector scores"
    )
    from repro.campaign.detection import DETECTOR_FOR_ATTACK

    ddemo.add_argument("attack", choices=sorted(DETECTOR_FOR_ATTACK))
    ddemo.add_argument("--seed", type=int, default=1)
    ddemo.add_argument(
        "--respond",
        action="store_true",
        help="let the victim reject flagged pairings (detection response)",
    )
    _add_fault_plan_arg(ddemo)
    ddemo.set_defaults(func=_cmd_detect_demo)

    droc = dsub.add_parser(
        "roc", help="TPR/FPR/latency sweeps from detection campaigns"
    )
    droc.add_argument(
        "--attack",
        action="append",
        choices=sorted(DETECTOR_FOR_ATTACK),
        default=None,
        help="attack classes to evaluate (repeatable; default: all)",
    )
    droc.add_argument("--trials", type=int, default=20)
    droc.add_argument("--seed-base", type=int, default=4000)
    droc.add_argument(
        "--min-tpr", type=float, default=0.95,
        help="acceptance floor for the operating point (clean runs)",
    )
    droc.add_argument(
        "--max-fpr", type=float, default=0.05,
        help="false-positive ceiling for the operating point",
    )
    droc.add_argument("--json", action="store_true", help="machine output")
    _add_fault_plan_arg(droc)
    _add_campaign_common(droc)
    droc.set_defaults(func=_cmd_detect_roc)

    report = sub.add_parser(
        "report",
        help="render the run report from cached campaign results",
    )
    report.add_argument("--trials", type=int, default=20)
    report.add_argument("--seed-base", type=int, default=2000)
    report.add_argument(
        "--table1-seed-base", type=int, default=1000,
        help="seed base for the Table I extraction sweep",
    )
    report.add_argument(
        "--roc", default=None, metavar="ROC.json",
        help="include a `blap detect roc --json` artifact",
    )
    report.add_argument(
        "--run-dir", default=None, metavar="runs/ID",
        help="include a run's telemetry (ingested through the store)",
    )
    report.add_argument(
        "--store-db", default=None, metavar="DB",
        help="read run telemetry from this store database instead of a "
        "run directory",
    )
    report.add_argument(
        "--store-run", default=None, metavar="RUN_ID",
        help="restrict --store-db telemetry to one run id",
    )
    report.add_argument(
        "--top-spans", type=int, default=10,
        help="rows in the self-time attribution table",
    )
    report.add_argument(
        "--format", default=None,
        choices=["markdown", "html", "json"],
        help="output format (default: markdown, or html with --html)",
    )
    report.add_argument(
        "--html", action="store_true", help="self-contained HTML instead of Markdown"
    )
    report.add_argument("-o", "--output", default=None, help="output file")
    _add_campaign_common(report)
    report.set_defaults(func=_cmd_report)

    profile = sub.add_parser(
        "profile",
        help="deterministic perf attribution: self-time trees, "
        "flamegraph export, profile diffs",
    )
    prosub = profile.add_subparsers(dest="profile_command", required=True)

    prun = prosub.add_parser(
        "run", help="run a profiled campaign and write profile artifacts"
    )
    prun.add_argument("scenario", choices=scenario_names())
    prun.add_argument("--trials", type=int, default=20)
    prun.add_argument("--seed-base", type=int, default=0)
    prun.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        metavar="KEY=VALUE",
        help="scenario parameter (JSON value; repeatable)",
    )
    prun.add_argument(
        "-o", "--out", default="blap-profile",
        help="artifact directory (spans.collapsed, profile.json, ...)",
    )
    prun.add_argument(
        "--cprofile", action="store_true",
        help="also sample workers with cProfile (wall clock)",
    )
    prun.add_argument(
        "--top", type=int, default=10,
        help="rows in the top self-time table",
    )
    prun.add_argument("--json", action="store_true", help="machine output")
    _add_fault_plan_arg(prun)
    _add_population_arg(prun)
    _add_campaign_common(prun)
    prun.set_defaults(func=_cmd_profile_run)

    pflame = prosub.add_parser(
        "flame",
        help="one trial's self-time tree as collapsed flamegraph stacks "
        "(flamegraph.pl / speedscope)",
    )
    pflame.add_argument("scenario", choices=scenario_names())
    pflame.add_argument("--seed", type=int, default=1)
    pflame.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        metavar="KEY=VALUE",
        help="scenario parameter override (repeatable)",
    )
    pflame.add_argument("-o", "--output", default=None, help="output file")
    _add_fault_plan_arg(pflame)
    pflame.set_defaults(func=_cmd_profile_flame)

    pdiff = prosub.add_parser(
        "diff", help="diff two profile.json artifacts by self-time"
    )
    pdiff.add_argument(
        "baseline", help="baseline profile.json (or its directory)"
    )
    pdiff.add_argument(
        "current", help="current profile.json (or its directory)"
    )
    pdiff.add_argument(
        "--top", type=int, default=20, help="show the top N moved paths"
    )
    pdiff.add_argument("--json", action="store_true", help="machine output")
    pdiff.set_defaults(func=_cmd_profile_diff)

    faults = sub.add_parser(
        "faults", help="the fault-injection point catalogue"
    )
    fsub = faults.add_subparsers(dest="faults_command", required=True)

    flist = fsub.add_parser("list", help="catalogued injection points")
    flist.add_argument(
        "-v", "--verbose", action="store_true",
        help="show descriptions and parameters",
    )
    flist.set_defaults(func=_cmd_faults_list)

    fdesc = fsub.add_parser("describe", help="one injection point in full")
    fdesc.add_argument("point", help="point name, e.g. phy.frame_loss")
    fdesc.set_defaults(func=_cmd_faults_describe)

    population = sub.add_parser(
        "population", help="the ambient device population presets"
    )
    psub = population.add_subparsers(dest="population_command", required=True)

    plist = psub.add_parser("list", help="registered population presets")
    plist.add_argument(
        "-v", "--verbose", action="store_true",
        help="show cast members and ambient parameters",
    )
    plist.set_defaults(func=_cmd_population_list)

    pdesc = psub.add_parser("describe", help="one preset in full")
    pdesc.add_argument("name", help="preset name, e.g. office-floor")
    pdesc.add_argument(
        "--json", action="store_true", help="emit the spec as JSON"
    )
    pdesc.set_defaults(func=_cmd_population_describe)

    def _add_db_arg(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--db",
            default=None,
            metavar="DB",
            help="store database "
            "(default: $BLAP_STORE_DB or <runs root>/store.db)",
        )

    def _add_page_args(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--limit", type=int, default=1000,
            help="page size (-1 for unlimited)",
        )
        target.add_argument("--offset", type=int, default=0)
        target.add_argument(
            "--json", action="store_true", help="machine output"
        )

    storep = sub.add_parser(
        "store", help="the indexed run store (SQLite over runs/)"
    )
    ssub = storep.add_subparsers(dest="store_command", required=True)

    singest = ssub.add_parser(
        "ingest", help="backfill run directories into the store"
    )
    singest.add_argument(
        "run_dir",
        nargs="*",
        help="runs/<id> directories (default: every discovered run)",
    )
    _add_db_arg(singest)
    singest.set_defaults(func=_cmd_store_ingest)

    slist = ssub.add_parser("list", help="runs in the store")
    _add_db_arg(slist)
    slist.add_argument("--json", action="store_true", help="machine output")
    slist.set_defaults(func=_cmd_store_list)

    query = sub.add_parser(
        "query", help="typed queries against the run store"
    )
    qsub = query.add_subparsers(dest="query_command", required=True)

    qruns = qsub.add_parser("runs", help="runs with telemetry rollups")
    _add_db_arg(qruns)
    qruns.add_argument("--json", action="store_true", help="machine output")
    qruns.set_defaults(func=_cmd_store_list)

    qevents = qsub.add_parser(
        "events", help="timeline events (time-range, source, span filters)"
    )
    _add_db_arg(qevents)
    qevents.add_argument("--run", default=None, help="run id")
    qevents.add_argument(
        "--since", type=float, default=None, help="t >= SINCE (seconds)"
    )
    qevents.add_argument(
        "--until", type=float, default=None, help="t < UNTIL (seconds)"
    )
    qevents.add_argument(
        "--source", action="append", default=None,
        help="only these sources (repeatable)",
    )
    qevents.add_argument(
        "--category", action="append", default=None,
        help="only these categories (repeatable)",
    )
    qevents.add_argument(
        "--kind", default=None, choices=["trace", "span"]
    )
    qevents.add_argument(
        "--span-type", default=None, metavar="NAME",
        help="span name filter (implies --kind span)",
    )
    qevents.add_argument("--scenario", default=None)
    qevents.add_argument("--seed", type=int, default=None)
    qevents.add_argument(
        "--count", action="store_true", help="print the match count only"
    )
    qevents.add_argument(
        "--group-by", default=None,
        choices=["source", "category", "kind", "scenario"],
        help="count breakdown instead of rows",
    )
    _add_page_args(qevents)
    qevents.set_defaults(func=_cmd_query_events)

    qalerts = qsub.add_parser("alerts", help="persisted detector alerts")
    _add_db_arg(qalerts)
    qalerts.add_argument("--run", default=None, help="run id")
    qalerts.add_argument("--since", type=float, default=None)
    qalerts.add_argument("--until", type=float, default=None)
    qalerts.add_argument(
        "--detector", action="append", default=None,
        help="only these detectors (repeatable)",
    )
    qalerts.add_argument("--min-score", type=float, default=None)
    qalerts.add_argument("--peer", default=None, help="peer address")
    qalerts.add_argument("--scenario", default=None)
    qalerts.add_argument("--seed", type=int, default=None)
    _add_page_args(qalerts)
    qalerts.set_defaults(func=_cmd_query_alerts)

    qtel = qsub.add_parser("telemetry", help="per-trial campaign records")
    _add_db_arg(qtel)
    qtel.add_argument("--run", default=None, help="run id")
    qtel.add_argument("--scenario", default=None)
    qtel.add_argument("--seed", type=int, default=None)
    qtel.add_argument(
        "--success", default=None, choices=["yes", "no"],
        help="only (un)successful trials",
    )
    qtel.add_argument(
        "--cached", default=None, choices=["yes", "no"],
        help="only cache hits / misses",
    )
    qtel.add_argument(
        "--errors-only", action="store_true", help="only errored trials"
    )
    _add_page_args(qtel)
    qtel.set_defaults(func=_cmd_query_telemetry)

    serve = sub.add_parser(
        "serve", help="HTTP JSON API + live HTML view over the store"
    )
    _add_db_arg(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="TCP port (0 picks an ephemeral port; the bound URL is "
        "printed either way)",
    )
    serve.add_argument(
        "-v", "--verbose", action="store_true", help="log requests"
    )
    serve.set_defaults(func=_cmd_serve)

    service = sub.add_parser(
        "service",
        help="the detection ingest service: streaming HCI feeds and "
        "capture uploads scored online",
    )
    svsub = service.add_subparsers(dest="service_command", required=True)

    svserve = svsub.add_parser(
        "serve", help="run the HTTP/WebSocket ingest server"
    )
    svserve.add_argument("--host", default="127.0.0.1")
    svserve.add_argument(
        "--port", type=int, default=8322,
        help="TCP port (0 picks an ephemeral port; the bound URL is "
        "printed either way)",
    )
    svserve.add_argument(
        "--db", nargs="?", const="", default=None, metavar="DB",
        help="archive session alerts into this run store and allow "
        "store-sourced sessions (bare --db uses the default store)",
    )
    svserve.add_argument(
        "--idle-timeout", type=float, default=300.0, metavar="S",
        help="evict sessions idle longer than this (wall seconds)",
    )
    svserve.add_argument(
        "--window", type=int, default=64,
        help="per-session reorder window (events)",
    )
    svserve.add_argument(
        "--queue-size", type=int, default=1024,
        help="per-session ingest queue bound (events; overflow is shed "
        "into dropped_events)",
    )
    svserve.add_argument(
        "-v", "--verbose", action="store_true", help="log sessions"
    )
    svserve.set_defaults(func=_cmd_service_serve)

    svsessions = svsub.add_parser(
        "sessions", help="list a running server's active sessions"
    )
    svsessions.add_argument(
        "--url", default="http://127.0.0.1:8322",
        help="server base URL",
    )
    svsessions.add_argument(
        "--json", action="store_true", help="machine output"
    )
    svsessions.set_defaults(func=_cmd_service_sessions)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
