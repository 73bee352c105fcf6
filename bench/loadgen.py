"""Session traffic for the ingest service: an open and a closed loop.

One thread and one asyncio loop drive at most ``connections`` sockets.
Every session is a fresh WebSocket connection carrying one capture:
the upgrade request, the hello, every event frame and the finish frame
are framed and masked once during set-up (:func:`session_bytes`), so a
session costs the generator one write and the reads of the server's
replies.

The open loop sends on a seeded Poisson schedule whatever the server
does, and times each session from when it was *due*, so a stall is
charged to every session queued behind it.  How late the generator
itself ran is reported separately (``lateness``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

#: fixed handshake key and frame mask: the server only checks their form
WS_KEY = "YmVuY2gtaW5nZXN0LWtleQ=="
MASK = b"\x5a\x17\xc3\x88"

Session = Callable[[int], Awaitable[Optional[Dict[str, Any]]]]


def masked_frame(payload: bytes) -> bytes:
    """One client-to-server text frame (RFC 6455 §5.2, masked)."""
    size = len(payload)
    header = bytearray([0x81])
    if size < 126:
        header.append(0x80 | size)
    elif size < 0x10000:
        header.append(0x80 | 126)
        header += size.to_bytes(2, "big")
    else:
        header.append(0x80 | 127)
        header += size.to_bytes(8, "big")
    header += MASK
    body = bytes(byte ^ MASK[index & 3] for index, byte in enumerate(payload))
    return bytes(header) + body


def session_bytes(frames: Sequence[Dict[str, Any]], tenant: str = "bench") -> bytes:
    """Everything one session sends, from the upgrade to ``finish``."""
    upgrade = (
        "GET /ws/ingest HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {WS_KEY}\r\n"
        "Sec-WebSocket-Version: 13\r\n"
        "\r\n"
    ).encode("ascii")
    hello = {"type": "hello", "protocol": 1, "tenant": tenant, "monitor": "capture"}
    messages = [hello, *frames, {"type": "finish"}]
    return upgrade + b"".join(
        masked_frame(json.dumps(message, sort_keys=True).encode("utf-8"))
        for message in messages
    )


async def run_session(host: str, port: int, payload: bytes) -> Optional[Dict[str, Any]]:
    """Send one pre-framed session; return its verdict, or ``None``."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        return None
    try:
        writer.write(payload)
        if b" 101 " not in await reader.readline():
            return None
        while await reader.readline() not in (b"\r\n", b""):
            pass
        while True:
            head = await reader.readexactly(2)
            size = head[1] & 0x7F
            if size == 126:
                size = int.from_bytes(await reader.readexactly(2), "big")
            elif size == 127:
                size = int.from_bytes(await reader.readexactly(8), "big")
            body = await reader.readexactly(size)
            if head[0] & 0x0F == 0x8:  # close before a verdict
                return None
            if b'"type": "verdict"' in body:
                return json.loads(body)
            if b'"type": "error"' in body:
                return None
    except (OSError, asyncio.IncompleteReadError):
        return None
    finally:
        writer.close()


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> List[float]:
    """Arrival offsets (s) of a Poisson process at ``rate`` per second."""
    due: List[float] = []
    offset = rng.expovariate(rate)
    while offset < seconds:
        due.append(offset)
        offset += rng.expovariate(rate)
    return due


@dataclass
class LoopResult:
    """What one loop measured; times are loop-clock seconds."""

    #: per session: due (open loop) or start (closed loop) -> verdict
    latencies: List[float] = field(default_factory=list)
    verdicts: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    #: session index behind each entry of ``latencies``/``verdicts``
    indices: List[int] = field(default_factory=list)
    #: per session: dispatch time minus due time (open loop only)
    lateness: List[float] = field(default_factory=list)
    wall_s: float = 0.0


async def open_loop(due: Sequence[float], session: Session, connections: int) -> LoopResult:
    """Start session ``i`` at ``due[i]`` on the first free connection."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    result = LoopResult()
    queue: "asyncio.Queue[Optional[int]]" = asyncio.Queue()

    async def dispatch() -> None:
        for index, offset in enumerate(due):
            target = start + offset
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(loop.time() - target)
            queue.put_nowait(index)
        for _ in range(connections):
            queue.put_nowait(None)

    async def connection() -> None:
        while True:
            index = await queue.get()
            if index is None:
                return
            verdict = await session(index)
            result.latencies.append(loop.time() - (start + due[index]))
            result.verdicts.append(verdict)
            result.indices.append(index)

    await asyncio.gather(dispatch(), *(connection() for _ in range(connections)))
    result.wall_s = loop.time() - start
    return result


async def closed_loop(
    session: Session,
    connections: int,
    seconds: Optional[float] = None,
    sessions: Optional[int] = None,
) -> LoopResult:
    """Each connection starts its next session when the last one ends.

    Stops starting sessions after ``seconds`` or once ``sessions`` have
    started, whichever comes first.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    deadline = start + seconds if seconds is not None else None
    numbers = itertools.count()
    result = LoopResult()

    async def connection() -> None:
        while deadline is None or loop.time() < deadline:
            index = next(numbers)
            if sessions is not None and index >= sessions:
                return
            began = loop.time()
            verdict = await session(index)
            result.latencies.append(loop.time() - began)
            result.verdicts.append(verdict)
            result.indices.append(index)

    await asyncio.gather(*(connection() for _ in range(connections)))
    result.wall_s = loop.time() - start
    return result
