"""Per-layer wall-clock attribution for the benchmark's traced runs.

:func:`install` wraps the public entry points of each layer of the
program (:data:`TRIAL_BOUNDARIES`, :data:`SERVICE_BOUNDARIES`).  Each
wrapper is rebound on the defining module or class and on every
``repro`` module that imported the same object by name, so callers
that did ``from repro.hci.parser import parse_packet`` are traced too.
Objects held elsewhere, such as in a dict built at import time, keep
the unwrapped function.

Every wrapped call opens a frame (layer, start, time spent in child
frames) on a :class:`Recorder`.  When it closes, the frame's duration
minus its children's is added to the layer's self time, so each
instant of host time is charged to the innermost open layer once:
same-layer recursion (``EccPoint.__mul__`` on a negative scalar)
and a layer re-entered below another are both counted once.  Frames
are aggregated as they close rather than stored, which keeps a traced
500-device world within memory.

Event callbacks are attributed to the ``repro.<subpackage>`` that
defines them: ``Simulator.schedule``/``schedule_at`` wrap the callback
as it is queued.  Coroutines (the service's WebSocket reads and
writes) are timed per step, so the time a coroutine spends suspended
is not charged to it.

The clock is host wall time (``time.perf_counter``).  Simulated time
plays no part here.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the layers reported by name; anything else is folded into ``other``
LAYERS = (
    "crypto.ecc",
    "crypto.aes",
    "crypto.legacy",
    "crypto.ssp",
    "sim",
    "sim.trace",
    "hci",
    "phy",
    "transport",
    "controller",
    "host",
    "ble",
    "population",
    "attacks",
    "detect",
    "service.ws",
    "service.protocol",
    "service.session",
    "obs",
    "other",
)


class Recorder:
    """Open frames plus per-layer self time and per-group counts.

    A *group* names a boundary whose calls are counted (``calls``) and
    whose outermost calls are timed inclusively (``inclusive_s``):
    nested calls of the same group count once.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        #: open frames: [layer, group, start, child seconds, outermost]
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}

    def enter(self, layer: str, group: Optional[str] = None) -> None:
        outermost = False
        if group is not None:
            depth = self._depth.get(group, 0)
            self._depth[group] = depth + 1
            if depth == 0:
                outermost = True
                self.calls[group] = self.calls.get(group, 0) + 1
        self._stack.append([layer, group, self.clock(), 0.0, outermost])

    def exit(self) -> None:
        layer, group, start, child, outermost = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1][3] += elapsed
        if group is not None:
            self._depth[group] -= 1
            if outermost:
                self.inclusive_s[group] = (
                    self.inclusive_s.get(group, 0.0) + elapsed
                )

    def count(self, group: str) -> None:
        self.calls[group] = self.calls.get(group, 0) + 1

    def summary(self) -> Dict[str, Any]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} trace frames still open")
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
        }


@dataclass(frozen=True)
class Boundary:
    """One traced entry point.

    ``attr`` is a module-level function, ``Class.method`` (also wrapped
    on every subclass that overrides it), or ``*`` for every public
    function the module defines.
    """

    module: str
    attr: str
    layer: str
    group: Optional[str] = None


def module_layer(module: str, prefix: str = "repro") -> str:
    """``repro.host.gap`` -> ``host``; outside ``prefix`` -> ``other``."""
    parts = module.split(".")
    if parts[0] != prefix or len(parts) < 2:
        return "other"
    return parts[1]


def owner_layer(callback: Any, prefix: str = "repro") -> str:
    """The layer whose code a scheduled callback runs."""
    fn = getattr(callback, "__func__", callback)
    fn = getattr(fn, "func", fn)  # functools.partial
    module = getattr(fn, "__module__", None) or type(fn).__module__
    return module_layer(module, prefix)


def _traced(fn: Callable, layer: str, group: Optional[str], rec: Recorder):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_coroutine(*args: Any, **kwargs: Any) -> Any:
            if group is not None:
                rec.count(group)
            return await _Steps(fn(*args, **kwargs), layer, rec)

        traced_coroutine._bench_traced = True
        return traced_coroutine

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        rec.enter(layer, group)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()

    traced._bench_traced = True
    return traced


class _Steps:
    """Drive a coroutine, timing each step it runs as one frame."""

    def __init__(self, coro: Any, layer: str, rec: Recorder) -> None:
        self.coro = coro
        self.layer = layer
        self.rec = rec

    def __await__(self):
        coro, rec, layer = self.coro, self.rec, self.layer
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            rec.enter(layer)
            try:
                if error is None:
                    signal = coro.send(value)
                else:
                    signal = coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                rec.exit()
            try:
                value, error = (yield signal), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # cancellation is thrown in
                value, error = None, exc


def _traced_schedule(
    original: Callable, rec: Recorder, prefix: str
) -> Callable:
    """``Simulator.schedule``-shaped wrapper that traces the callback."""
    layers: Dict[Any, str] = {}

    @functools.wraps(original)
    def schedule(self: Any, when: float, callback: Callable, *args: Any):
        key = getattr(getattr(callback, "__func__", callback), "__code__", None)
        layer = layers.get(key) if key is not None else None
        if layer is None:
            layer = owner_layer(callback, prefix)
            if key is not None:
                layers[key] = layer

        def fire(*fire_args: Any) -> None:
            rec.enter(layer, "sim.events")
            try:
                callback(*fire_args)
            finally:
                rec.exit()

        rec.enter("sim")
        try:
            return original(self, when, fire, *args)
        finally:
            rec.exit()

    return schedule


class Installation:
    """What :func:`install` rebound, so :meth:`restore` can undo it."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def rebind(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def install(
    boundaries: Tuple[Boundary, ...],
    rec: Recorder,
    prefix: str = "repro",
) -> Installation:
    """Wrap every boundary; returns the :class:`Installation`."""
    done = Installation()
    for boundary in boundaries:
        module = importlib.import_module(boundary.module)
        if "." in boundary.attr:
            cls_name, method = boundary.attr.split(".", 1)
            root = getattr(module, cls_name)
            for cls in [root, *_subclasses(root)]:
                if method in cls.__dict__:
                    _wrap_method(done, cls, method, boundary, rec, prefix)
            continue
        if boundary.attr == "*":
            names = [
                name
                for name, value in vars(module).items()
                if not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not getattr(value, "_bench_traced", False)
            ]
        else:
            names = [boundary.attr]
        for name in names:
            original = getattr(module, name)
            wrapped = _traced(original, boundary.layer, boundary.group, rec)
            for importer in list(sys.modules.values()):
                importer_name = getattr(importer, "__name__", "")
                if importer_name != prefix and not importer_name.startswith(
                    prefix + "."
                ):
                    continue
                for attr, value in list(vars(importer).items()):
                    if value is original:
                        done.rebind(importer, attr, wrapped)
    return done


def _wrap_method(
    done: Installation,
    cls: type,
    method: str,
    boundary: Boundary,
    rec: Recorder,
    prefix: str,
) -> None:
    raw = cls.__dict__[method]
    if method in ("schedule", "schedule_at"):
        done.rebind(cls, method, _traced_schedule(raw, rec, prefix))
    elif isinstance(raw, classmethod):
        done.rebind(
            cls,
            method,
            classmethod(
                _traced(raw.__func__, boundary.layer, boundary.group, rec)
            ),
        )
    else:
        done.rebind(
            cls, method, _traced(raw, boundary.layer, boundary.group, rec)
        )


def install_loop_root(rec: Recorder) -> Installation:
    """Open an ``other`` frame around every asyncio callback.

    In the service each loop callback (a task step, a transport read)
    is one root frame, so shares are of the server's busy time and
    idle waiting in ``select`` is charged to nobody.
    """
    done = Installation()
    original = asyncio.events.Handle._run

    def _run(self: Any) -> None:
        rec.enter("other", "loop")
        try:
            original(self)
        finally:
            rec.exit()

    done.rebind(asyncio.events.Handle, "_run", _run)
    return done


_HCI = (
    Boundary("repro.hci.packets", "HciPacket.to_h4_bytes", "hci", "hci.encodes"),
    Boundary("repro.hci.packets", "HciPacket.to_bytes", "hci", "hci.encodes"),
    Boundary("repro.hci.parser", "parse_packet", "hci", "hci.parses"),
    Boundary("repro.hci.parser", "parse_command", "hci", "hci.parses"),
    Boundary("repro.hci.parser", "parse_event", "hci", "hci.parses"),
    Boundary("repro.hci.packets", "HciCommand.from_parameters", "hci", "hci.parses"),
    Boundary("repro.hci.packets", "HciEvent.from_parameters", "hci", "hci.parses"),
    Boundary("repro.hci.packets", "HciAclData.from_bytes", "hci", "hci.parses"),
)

#: the layer boundaries of one campaign trial
TRIAL_BOUNDARIES = _HCI + (
    Boundary("repro.sim.eventloop", "Simulator.run", "sim"),
    Boundary("repro.sim.eventloop", "Simulator.schedule", "sim"),
    Boundary("repro.sim.eventloop", "Simulator.schedule_at", "sim"),
    Boundary("repro.sim.trace", "Tracer.emit", "sim.trace", "sim.trace.records"),
    Boundary("repro.crypto.ecc", "EccPoint.__mul__", "crypto.ecc", "crypto.ecc.scalar_mults"),
    Boundary("repro.crypto.ecc", "EccPoint.__rmul__", "crypto.ecc", "crypto.ecc.scalar_mults"),
    Boundary("repro.crypto.aes", "aes128_encrypt", "crypto.aes", "crypto.aes.blocks"),
    Boundary("repro.crypto.aes", "*", "crypto.aes"),
    Boundary("repro.crypto.legacy", "*", "crypto.legacy"),
    Boundary("repro.crypto.safer", "*", "crypto.legacy"),
    Boundary("repro.crypto.safer", "SaferPlus.encrypt", "crypto.legacy"),
    Boundary("repro.crypto.safer", "SaferPlus.encrypt_modified", "crypto.legacy"),
    Boundary("repro.crypto.e0", "*", "crypto.legacy"),
    Boundary("repro.crypto.e0", "E0Cipher.keystream", "crypto.legacy"),
    Boundary("repro.crypto.e0", "E0Cipher.process", "crypto.legacy"),
    Boundary("repro.crypto.ssp", "*", "crypto.ssp"),
    Boundary("repro.crypto.smp", "*", "crypto.ssp"),
    Boundary("repro.phy.medium", "RadioMedium.send_frame", "phy", "phy.frames"),
    Boundary("repro.phy.medium", "RadioMedium.page", "phy"),
    Boundary("repro.phy.medium", "RadioMedium.start_inquiry", "phy"),
    Boundary("repro.phy.medium", "RadioMedium.le_advertise", "phy"),
    Boundary("repro.phy.medium", "RadioMedium.le_connect", "phy"),
    Boundary("repro.transport.base", "HciTransport.send_from_host", "transport", "transport.packets"),
    Boundary("repro.transport.base", "HciTransport.send_from_controller", "transport", "transport.packets"),
    Boundary("repro.detect.feed", "DetectionFeed.publish", "detect"),
    Boundary("repro.detect.engine", "DetectionEngine.finish", "detect"),
    Boundary("repro.attacks.scenario", "build_world", "attacks", "attacks.build_world"),
    Boundary("repro.population.ambient", "populate", "population", "population.populate"),
    Boundary("repro.obs.metrics", "MetricsRegistry.snapshot", "obs"),
)

#: the layer boundaries of the ingest server (WebSocket path)
SERVICE_BOUNDARIES = _HCI + (
    Boundary("repro.service.websocket", "read_frame", "service.ws"),
    Boundary("repro.service.websocket", "WebSocket.recv_json", "service.ws"),
    Boundary("repro.service.websocket", "WebSocket.send_json", "service.ws"),
    Boundary("repro.service.websocket", "handshake_response", "service.ws"),
    Boundary("repro.service.server", "IngestServer._read_request", "service.ws"),
    Boundary("repro.service.protocol", "frame_to_event", "service.protocol"),
    Boundary("repro.service.server", "enqueue_or_shed", "service.session"),
    Boundary("repro.service.session", "SessionManager.open", "service.session"),
    Boundary("repro.service.session", "SessionManager.finish", "service.session", "service.finish"),
    Boundary("repro.service.session", "Session.ingest", "detect", "detect.ingest"),
    Boundary("repro.service.session", "Session.finish", "detect"),
    Boundary("repro.obs.metrics", "MetricsRegistry.snapshot", "obs"),
)
