"""Detection-as-a-service: the async streaming ingest subsystem.

The serving half of :mod:`repro.detect` — an asyncio HTTP/WebSocket
server (standard library only, like ``blap serve``) that accepts live
JSONL HCI/timeline event streams over long-lived connections and
uploaded btsnoop captures, multiplexes each session onto its own set
of detector instances behind a :class:`SessionManager`, and returns
alerts plus scored verdicts identical to offline
:func:`repro.detect.replay_capture`.

Layering:

* :mod:`repro.service.protocol` — the wire protocol: JSONL frames ↔
  :class:`~repro.detect.feed.DetectionEvent`, capture decoding with
  structured one-line errors, the verdict schema;
* :mod:`repro.service.session` — :class:`Session` (one stream, one
  detector pipeline, bounded reorder window, event budget) and
  :class:`SessionManager` (per-tenant metrics, idle eviction,
  optional run-store archiving);
* :mod:`repro.service.websocket` — minimal RFC 6455 framing over
  asyncio streams (server and client sides);
* :mod:`repro.service.server` — :class:`IngestServer`, the routed
  HTTP/WebSocket front-end (``blap service serve``);
* :mod:`repro.service.client` — asyncio client helpers shared by
  tests and CI smoke.

Sustained ingest throughput is measured by the ``service-ingest``
workload of ``python3 bench/run.py``, which drives a
:func:`~repro.service.server.run_server` child over loopback.

Quick start::

    from repro.service import IngestServer

    async def main():
        async with IngestServer(port=0) as server:
            print(server.url)        # http://127.0.0.1:<port>
            await server.serve_forever()
"""

from repro.service.protocol import (
    CaptureError,
    PROTOCOL_VERSION,
    ProtocolError,
    capture_events,
    decode_capture,
    frame_to_event,
    frames_from_capture,
)
from repro.service.session import (
    Session,
    SessionConfig,
    SessionError,
    SessionManager,
)
from repro.service.server import IngestServer

__all__ = [
    "CaptureError",
    "IngestServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Session",
    "SessionConfig",
    "SessionError",
    "SessionManager",
    "capture_events",
    "decode_capture",
    "frame_to_event",
    "frames_from_capture",
]
