"""Run the ingest server in its own process for the service workload.

    python bench/serve.py [--trace]

Prints ``{"port": N}`` once ``repro.service.server.run_server`` is
listening on an ephemeral loopback port, serves until SIGINT, then
prints one JSON line: with ``--trace``, the per-layer recorder summary
and the p90 wait of an event between ``enqueue_or_shed`` and
``Session.ingest``; without, an empty object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def _probe_queue_wait(clock: Callable[[], float], waits: List[float]) -> None:
    """Time each event from its enqueue to the start of its ingest."""
    from repro.service import server, session

    stamps: Dict[int, float] = {}
    enqueue = server.enqueue_or_shed
    ingest = session.Session.ingest

    def stamped_enqueue(owner, queue, item):
        stamps[id(item)] = clock()
        queued = enqueue(owner, queue, item)
        if not queued:
            stamps.pop(id(item), None)
        return queued

    def timed_ingest(self, event):
        stamp = stamps.pop(id(event), None)
        if stamp is not None:
            waits.append(clock() - stamp)
        return ingest(self, event)

    server.enqueue_or_shed = stamped_enqueue
    session.Session.ingest = timed_ingest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    recorder = None
    waits: List[float] = []
    if args.trace:
        import stats
        import trace

        recorder = trace.Recorder()
        trace.install(trace.SERVICE_BOUNDARIES, recorder)
        trace.install_loop_root(recorder)
        _probe_queue_wait(recorder.clock, waits)

    from repro.service.server import run_server

    def ready(server) -> None:
        print(json.dumps({"port": server.port}), flush=True)

    run_server(port=0, ready=ready)

    report = {}
    if recorder is not None:
        report["trace"] = recorder.summary()
        report["queue_wait_ms_p90"] = stats.percentile(waits, 90) * 1e3
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
