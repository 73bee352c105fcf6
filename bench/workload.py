"""One benchmark workload in this interpreter: set up, measure, check.

    python bench/workload.py WORKLOAD --seed S --seconds T [--trace | --setup-only]

``bench/run.py`` starts this script in a fresh interpreter for every
workload and every set-up sample; its last stdout line is one JSON
object.  The workload seed sets the trial seeds, the capture corpus
and the arrival schedule; the program under test only ever sees those
generated inputs.
"""

from __future__ import annotations

import time

#: interpreter ready, before anything of the program is imported
T_READY = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import loadgen  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

#: trial seeds are ``seed * SEED_STRIDE + index``; warm-up uses
#: indices from WARMUP_INDEX up, which no timed run reaches
SEED_STRIDE = 1_000_000
WARMUP_INDEX = 900_000
#: a timed trial loop runs at least this many trials of each scenario,
#: so each scenario's p90 has ten samples beyond it
MIN_TRIALS = 100
#: per-trial wall-clock guard: a trial past it counts as failed
TRIAL_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class TrialMix:
    """A closed loop of ``run_trial`` calls, round-robin over ``rotation``."""

    #: (scenario, params, the outcome every trial must report)
    rotation: Tuple[Tuple[str, Dict[str, Any], str], ...]
    #: rounds run during set-up, before the first timed trial
    warmup_rounds: int
    #: the first this-many trials make the digest; the traced run
    #: repeats exactly these, untraced and traced
    digest_trials: int


TRIAL_MIXES = {
    # The paper's units of work: Table II page blocking, Table I
    # extraction and the detector ROC's two halves.  ECC dominates.
    "quiet-br": TrialMix(
        rotation=(
            ("page-blocking", {}, "mitm"),
            ("extraction", {}, "extracted"),
            ("detection-attack", {}, "detected"),
            ("detection-benign", {}, "clean"),
        ),
        warmup_rounds=2,
        digest_trials=48,
    ),
    # Both BLURtooth CTKD pivots: P-256 plus pure-Python AES.
    "le-pivot": TrialMix(
        rotation=(
            ("blurtooth-bredr-to-le", {}, "pivoted"),
            ("blurtooth-le-to-bredr", {}, "overwritten"),
        ),
        warmup_rounds=4,
        digest_trials=24,
    ),
    # 500 ambient devices: event heap, tracing, HCI and host, no ECC.
    "crowd-stadium": TrialMix(
        rotation=(("page-blocking-ambient", {"population": "stadium"}, "mitm"),),
        warmup_rounds=1,
        digest_trials=6,
    ),
}

#: the service workload's capture corpus and traffic
CORPUS_SIZE = 8
CONNECTIONS = 2
RATES = (250, 500, 1000, 2000, 4000)
#: rates whose session latency is reported; the sweep always runs them
REPORTED_RATES = (250, 500, 1000)
#: the rate whose latency is the end-to-end ``op_ms_*``
LATENCY_RATE = 500
#: a rate step passes when p90 latency and p90 lateness stay below this
LIMIT_MS = 25.0
WARMUP_SESSIONS = 200


class Workload:
    """Set-up, timed loop and traced loop of one workload."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def close(self) -> None:
        """Stop whatever the workload started."""


# ------------------------------------------------------------------ trials


class TrialWorkload(Workload):
    def __init__(self, mix: TrialMix, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.mix = mix

    def setup(self) -> None:
        from repro.campaign.runner import run_trial

        self.run_trial = run_trial
        for index in range(self.mix.warmup_rounds * len(self.mix.rotation)):
            self.run_one(WARMUP_INDEX + index)

    def run_one(self, index: int) -> Tuple[list, float]:
        """One trial: its digest record and wall time; checks the outcome."""
        scenario, params, expected = self.mix.rotation[index % len(self.mix.rotation)]
        seed = self.seed * SEED_STRIDE + index
        started = time.perf_counter()
        result, metrics = self.run_trial(
            scenario, seed, params, timeout_s=TRIAL_TIMEOUT_S, max_attempts=1
        )
        elapsed = time.perf_counter() - started
        if result.error or not result.success or result.outcome != expected:
            self.fail(
                f"{scenario} seed {seed}: outcome {result.outcome!r}, "
                f"expected {expected!r} ({result.error or 'no error'})"
            )
        events = metrics["counters"].get("sim.events_processed", 0)
        record = [scenario, seed, result.success, result.outcome, result.sim_time_s, events]
        return record, elapsed

    def measure(self) -> Dict[str, Any]:
        records: List[list] = []
        latencies: List[float] = []
        minimum = max(MIN_TRIALS * len(self.mix.rotation), self.mix.digest_trials)
        started = time.perf_counter()
        while True:
            for _ in self.mix.rotation:
                record, elapsed = self.run_one(len(records))
                records.append(record)
                latencies.append(elapsed)
            wall = time.perf_counter() - started
            if len(records) >= minimum and wall >= self.seconds:
                break
        failed = len(self.problems)
        by_scenario: Dict[str, List[float]] = {}
        for record, elapsed in zip(records, latencies):
            by_scenario.setdefault(record[0], []).append(elapsed)

        def latency_ms(q: float) -> float:
            # Per scenario, then averaged: le-pivot's two pivots differ
            # twofold, and one median over the mix would jump between them.
            return statistics.fmean(
                stats.percentile(values, q) for values in by_scenario.values()
            ) * 1e3

        return {
            "attempted": len(records),
            "failed": failed,
            "metrics": {
                "ops_per_s": len(records) / wall,
                "op_ms_p50": latency_ms(50),
                "op_ms_p90": latency_ms(90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
            "detail": {
                "op": "trial",
                "samples": len(records),
                "timed_s": wall,
                "failed_ratio": failed / len(records),
                "scenario_ms_median": {
                    name: statistics.median(values) * 1e3
                    for name, values in sorted(by_scenario.items())
                },
                "sim_digest": stats.digest(records[: self.mix.digest_trials]),
            },
        }

    def measure_traced(self) -> Dict[str, Any]:
        count = self.mix.digest_trials
        plain = [self.run_one(index) for index in range(count)]
        recorder = trace.Recorder()
        trace.install(trace.TRIAL_BOUNDARIES, recorder)
        traced = []
        for index in range(count):
            recorder.enter("other", "trial")
            try:
                traced.append(self.run_one(index))
            finally:
                recorder.exit()
        plain_digest = stats.digest(record for record, _ in plain)
        traced_digest = stats.digest(record for record, _ in traced)
        if traced_digest != plain_digest:
            self.fail(
                f"traced run changed the simulation: digest {traced_digest} "
                f"!= untraced {plain_digest}"
            )
        summary = recorder.summary()
        events = sum(record[5] for record, _ in plain)
        if summary["calls"].get("sim.events", 0) != events:
            self.fail(
                f"traced {summary['calls'].get('sim.events', 0)} event "
                f"callbacks but the simulators ran {events}"
            )
        plain_s = [elapsed for _, elapsed in plain]
        traced_s = [elapsed for _, elapsed in traced]
        per_layer = layer_metrics(summary, count, summary["inclusive_s"]["trial"])
        calls, inclusive = summary["calls"], summary["inclusive_s"]
        per_layer.update(
            {
                "sim.host_us_per_event": sum(plain_s) / events * 1e6,
                "attacks.build_world_ms": inclusive.get("attacks.build_world", 0.0) / count * 1e3,
                "population.populate_ms": inclusive.get("population.populate", 0.0) / count * 1e3,
                "trace_overhead": statistics.median(traced_s) / statistics.median(plain_s) - 1,
            }
        )
        for name, group in COUNTS.items():
            per_layer[name] = calls.get(group, 0) / count
        return {
            "attempted": 2 * count,
            "failed": len(self.problems),
            "per_layer": per_layer,
            "detail": {"op": "trial", "traced_trials": count, "sim_digest": plain_digest},
        }


#: per-op counts: metric name -> recorder group
COUNTS = {
    "crypto.ecc.scalar_mults": "crypto.ecc.scalar_mults",
    "crypto.aes.blocks": "crypto.aes.blocks",
    "hci.encodes": "hci.encodes",
    "hci.parses": "hci.parses",
    "sim.events": "sim.events",
    "sim.trace.records": "sim.trace.records",
    "phy.frames": "phy.frames",
    "transport.packets": "transport.packets",
}

#: per-layer metrics that only some workloads produce; the rest report 0
OPTIONAL_METRICS = (
    "sim.host_us_per_event",
    "hci.parse_us",
    "detect.ingest_us",
    "attacks.build_world_ms",
    "population.populate_ms",
    "service.finish_ms",
    "service.queue_wait_ms_p90",
    "service.shed_ratio",
    "loadgen.late_ms_p90",
    "trace_overhead",
)


def layer_metrics(summary: Dict[str, Any], ops: int, total_s: float) -> Dict[str, float]:
    """Self ms per op and share of ``total_s`` for every layer.

    Layers outside :data:`trace.LAYERS` and the untraced remainder of
    ``total_s`` are reported as ``other``, so the shares sum to 1.
    """
    self_s = {layer: 0.0 for layer in trace.LAYERS}
    for layer, seconds in summary["self_s"].items():
        if layer in self_s and layer != "other":
            self_s[layer] += seconds
    self_s["other"] = total_s - sum(self_s.values())
    out: Dict[str, float] = {}
    for layer, seconds in self_s.items():
        out[f"{layer}.self_ms"] = seconds / ops * 1e3
        out[f"{layer}.share"] = seconds / total_s
    calls, inclusive = summary["calls"], summary["inclusive_s"]
    if calls.get("hci.parses"):
        out["hci.parse_us"] = inclusive["hci.parses"] / calls["hci.parses"] * 1e6
    return out


# ----------------------------------------------------------------- service


class Server:
    """``bench/serve.py`` in a child process on ``cpu``, stopped with SIGINT."""

    def __init__(self, cpu: int, traced: bool = False) -> None:
        command = [sys.executable, str(BENCH / "serve.py")]
        if traced:
            command.append("--trace")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            line = self.proc.stdout.readline()
            self.port = json.loads(line)["port"]
            self._check_health()
        except BaseException:
            self.kill()
            raise

    def _check_health(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        if response.status != 200 or body.get("status") != "ok":
            raise RuntimeError(f"server not healthy: {response.status} {body}")

    def peak_rss_mb(self) -> float:
        """The server's RSS high-water mark so far (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> Dict[str, Any]:
        """SIGINT, wait, and return the server's final JSON line."""
        self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except BaseException:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


class ServiceWorkload(Workload):
    """Open-loop rate sweep plus a closed-loop saturation phase."""

    server: Optional[Server] = None

    def setup(self) -> None:
        from repro.campaign.captures import produce_captures
        from repro.detect import replay_capture
        from repro.service import protocol

        captures = produce_captures(CORPUS_SIZE, "mixed", seed_base=self.seed)
        self.payloads: List[bytes] = []
        self.expected: List[Dict[str, Any]] = []
        for capture in captures:
            frames = protocol.frames_from_capture(capture)
            self.payloads.append(loadgen.session_bytes(frames))
            alerts = [alert.to_dict() for alert in replay_capture(capture).alerts]
            self.expected.append(
                {"alerts": json.loads(json.dumps(alerts)), "events": len(frames)}
            )
        self.mean_events = statistics.fmean(e["events"] for e in self.expected)
        # The generator and the server keep a core each: unpinned, on
        # two cores, low-load latency varied by 10% between runs.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
        self.server_cpu = cpus[-1]
        self.step_s = max(self.seconds / 6, 1.0)
        self.verdicts: Dict[int, Dict[str, Any]] = {}
        self.rng = random.Random(self.seed)
        self.server = self.start_server()

    def start_server(self, traced: bool = False) -> Server:
        server = Server(self.server_cpu, traced)
        try:
            asyncio.run(self.warm_up(server.port))
        except BaseException:
            server.kill()
            raise
        return server

    async def warm_up(self, port: int) -> None:
        result = await loadgen.closed_loop(
            self.session_fn(port, None), CONNECTIONS, sessions=WARMUP_SESSIONS
        )
        self.check(result, None)
        if self.problems:
            raise RuntimeError(f"warm-up failed: {self.problems[0]}")

    def capture_of(self, index: int, picks: Optional[List[int]]) -> int:
        """Session ``index`` replays ``picks[index]``, or cycles the corpus."""
        return picks[index] if picks is not None else index % len(self.payloads)

    def session_fn(self, port: int, picks: Optional[List[int]]) -> loadgen.Session:
        async def session(index: int):
            payload = self.payloads[self.capture_of(index, picks)]
            return await loadgen.run_session("127.0.0.1", port, payload)

        return session

    def check(self, result: loadgen.LoopResult, picks: Optional[List[int]]) -> int:
        """Compare every verdict with the offline replay; count failures."""
        failed = 0
        for index, verdict in zip(result.indices, result.verdicts):
            capture = self.capture_of(index, picks)
            expected = self.expected[capture]
            if verdict is None:
                problem = "no verdict"
            elif verdict.get("dropped_events"):
                problem = f"{verdict['dropped_events']} events shed"
            elif verdict.get("events") != expected["events"] or verdict.get("alerts") != expected["alerts"]:
                problem = "verdict differs from replay_capture"
            else:
                self.verdicts.setdefault(capture, verdict)
                continue
            failed += 1
            if len(self.problems) < 20:
                self.fail(f"session {index} (capture {capture}): {problem}")
        return failed

    async def step(self, port: int, rate: int) -> Dict[str, Any]:
        """One open-loop rate step; passes under the latency limit."""
        due = loadgen.poisson_schedule(rate, self.step_s, self.rng)
        picks = [self.rng.randrange(len(self.payloads)) for _ in due]
        result = await loadgen.open_loop(due, self.session_fn(port, picks), CONNECTIONS)
        failed = self.check(result, picks)
        p50 = stats.percentile(result.latencies, 50) * 1e3
        p90 = stats.percentile(result.latencies, 90) * 1e3
        late_p90 = stats.percentile(result.lateness, 90) * 1e3
        return {
            "rate": rate,
            "sessions": len(due),
            "failed": failed,
            "ms_p50": p50,
            "ms_p90": p90,
            "late_ms_p90": late_p90,
            "passed": failed == 0 and p90 <= LIMIT_MS and late_p90 <= LIMIT_MS,
            "latencies": result.latencies,
            "lateness": result.lateness,
            "verdicts": result.verdicts,
        }

    def digest(self) -> str:
        canonical = []
        for capture in range(len(self.payloads)):
            verdict = dict(self.verdicts.get(capture) or {})
            verdict.pop("session", None)
            canonical.append(verdict)
        return stats.digest(canonical)

    def measure(self) -> Dict[str, Any]:
        async def sweep():
            steps = []
            for rate in RATES:
                steps.append(await self.step(self.server.port, rate))
                if rate == max(REPORTED_RATES):
                    # after a seeded amount of traffic: the server keeps
                    # per-event samples, so later peaks grow with speed
                    peak_rss.append(self.server.peak_rss_mb())
                elif rate > max(REPORTED_RATES) and not steps[-1]["passed"]:
                    break
            closed = await loadgen.closed_loop(
                self.session_fn(self.server.port, None), CONNECTIONS, seconds=2 * self.step_s
            )
            return steps, closed

        peak_rss: List[float] = []
        try:
            steps, closed = asyncio.run(sweep())
        finally:
            self.server.stop()
        closed_failed = self.check(closed, None)
        attempted = sum(s["sessions"] for s in steps) + len(closed.verdicts)
        failed = sum(s["failed"] for s in steps) + closed_failed
        by_rate = {s["rate"]: s for s in steps}
        knee = 0
        for s in steps:
            if not s["passed"]:
                break
            knee = s["rate"]
        detail: Dict[str, Any] = {
            "op": "session",
            "failed_ratio": failed / attempted,
            "ingest_max_events_per_s": knee * self.mean_events,
            "closed_loop_events_per_s": len(closed.verdicts) / closed.wall_s * self.mean_events,
            "mean_events_per_session": self.mean_events,
            "steps": {
                f"r{s['rate']}": {
                    key: s[key]
                    for key in ("sessions", "failed", "ms_p50", "ms_p90", "late_ms_p90", "passed")
                }
                for s in steps
            },
            "sim_digest": self.digest(),
        }
        for rate in REPORTED_RATES:
            detail[f"session_ms_p50.r{rate}"] = by_rate[rate]["ms_p50"]
            detail[f"session_ms_p90.r{rate}"] = by_rate[rate]["ms_p90"]
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "ops_per_s": len(closed.verdicts) / closed.wall_s,
                "op_ms_p50": by_rate[LATENCY_RATE]["ms_p50"],
                "op_ms_p90": by_rate[LATENCY_RATE]["ms_p90"],
                "peak_rss_mb": peak_rss[0],
            },
            "detail": detail,
        }

    def measure_traced(self) -> Dict[str, Any]:
        try:
            plain = asyncio.run(self.step(self.server.port, 500))
        finally:
            self.server.stop()
        plain_digest = self.digest()
        self.verdicts.clear()
        server = Server(self.server_cpu, traced=True)

        async def traced_steps():
            return [await self.step(server.port, rate) for rate in (500, 1000)]

        try:
            steps = asyncio.run(traced_steps())
        finally:
            final = server.stop()
        if self.digest() != plain_digest:
            self.fail("the traced server's verdicts differ from the untraced server's")
        summary = final["trace"]
        sessions = sum(s["sessions"] for s in steps)
        events = sum(v["events"] for s in steps for v in s["verdicts"] if v)
        dropped = sum(v["dropped_events"] for s in steps for v in s["verdicts"] if v)
        per_layer = layer_metrics(summary, sessions, summary["inclusive_s"]["loop"])
        calls, inclusive = summary["calls"], summary["inclusive_s"]
        per_layer.update(
            {
                "detect.ingest_us": inclusive["detect.ingest"] / calls["detect.ingest"] * 1e6,
                "service.finish_ms": inclusive["service.finish"] / calls["service.finish"] * 1e3,
                "service.queue_wait_ms_p90": final["queue_wait_ms_p90"],
                "service.shed_ratio": dropped / (events + dropped),
                "loadgen.late_ms_p90": stats.percentile(
                    [late for s in steps for late in s["lateness"]], 90
                ) * 1e3,
                "trace_overhead": steps[0]["ms_p50"] / plain["ms_p50"] - 1,
            }
        )
        for name, group in COUNTS.items():
            per_layer[name] = calls.get(group, 0) / sessions
        return {
            "attempted": plain["sessions"] + sessions,
            "failed": plain["failed"] + sum(s["failed"] for s in steps),
            "per_layer": per_layer,
            "detail": {"op": "session", "traced_sessions": sessions, "sim_digest": plain_digest},
        }

    def close(self) -> None:
        if self.server is not None and self.server.proc.poll() is None:
            self.server.kill()


WORKLOADS = (*TRIAL_MIXES, "service-ingest")


def make(name: str, seed: int, seconds: float) -> Workload:
    if name == "service-ingest":
        return ServiceWorkload(seed, seconds)
    return TrialWorkload(TRIAL_MIXES[name], seed, seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = make(args.workload, args.seed, args.seconds)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T_READY
        if args.setup_only:
            out: Dict[str, Any] = {"attempted": 0, "failed": 0}
        elif args.trace:
            out = workload.measure_traced()
        else:
            out = workload.measure()
    finally:
        workload.close()
    out.update({"workload": args.workload, "seed": args.seed, "setup_s": setup_s})
    out["problems"] = workload.problems
    if "per_layer" in out:
        for name in OPTIONAL_METRICS:
            out["per_layer"].setdefault(name, 0.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
