"""The repository benchmark: every workload, every metric, checked.

    python bench/run.py [--workload W] [--seed S] [--seconds T]
                        [--trace [0|1]] [--out FILE]

Each workload runs in a fresh interpreter (``bench/workload.py``).
Untraced, the end-to-end metrics are measured and ``setup_s`` is the
median of several set-ups, each in its own interpreter.  With
``--trace`` a separate run reports the per-layer metrics instead.
Every metric is printed by name with its unit, then the last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when a check fails.

``--out`` also writes that result with the details and the host's
identity to FILE, for ``bench/compare.py``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: set-ups measured per untraced run (the measured run's own included)
SETUP_SAMPLES = 5
#: one worker interpreter may take this long before it is killed
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A worker failed to produce a result."""


def host_identity() -> Dict[str, Any]:
    """What makes results from different hosts comparable."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_start": list(os.getloadavg()),
    }


def run_worker(workload: str, seed: int, seconds: float, flag: Optional[str]) -> Dict[str, Any]:
    """``workload.py`` in a fresh interpreter; its last stdout line."""
    command = [
        sys.executable,
        str(BENCH / "workload.py"),
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
    ]
    if flag:
        command.append(flag)
    # Own process group, so a timeout also stops the service's server.
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(
    spec: Dict[str, Any], workload: str, seed: int, seconds: float, traced: bool
) -> Dict[str, Any]:
    """One workload: the metrics ``spec`` (BENCHMARK.json) lists, plus details."""
    if traced:
        main = run_worker(workload, seed, seconds, "--trace")
        values = main["per_layer"]
        setups: List[float] = []
    else:
        setups = [
            run_worker(workload, seed, seconds, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        main = run_worker(workload, seed, seconds, None)
        setups.append(main["setup_s"])
        values = dict(main["metrics"], setup_s=statistics.median(setups))
    listed = spec["per_layer" if traced else "end_to_end"]
    missing = [entry["name"] for entry in listed if entry["name"] not in values]
    if missing:
        raise BenchError(f"{workload} worker did not report {missing}")
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in listed
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": main["failed"] == 0 and not main["problems"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "detail": dict(main["detail"], problems=main["problems"], setup_samples_s=setups),
    }


def print_result(result: Dict[str, Any]) -> None:
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name:15s} {metric:28s} {entry['value']:14.4f} {entry['unit']}")
    for key, value in result["detail"].items():
        print(f"{name:15s} {key:28s} {json.dumps(value)}")
    status = "ok" if result["correct"] else "FAILED"
    print(f"{name:15s} {'checks':28s} {status} ({result['failed']}/{result['attempted']} failed)")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=Path, help="write the full result(s) here")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    host = host_identity()
    results = []
    for workload in [args.workload] if args.workload else workloads:
        try:
            result = run_workload(spec, workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        result["host"] = dict(host, loadavg_end=list(os.getloadavg()))
        print_result(result)
        results.append(result)
    if args.out is not None:
        payload: Any = results[0] if len(results) == 1 else {"runs": results}
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    ok = all(result["correct"] for result in results)
    if len(results) == 1:
        summary = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": ok,
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "workloads": {result["workload"]: result["metrics"] for result in results},
        }
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"bench: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
