"""The shared radio medium: inquiry, paging, links and air sniffing.

Timing model
============

Scan behaviour follows the specification's page/inquiry scan model: a
scanning device listens for a ``window`` every ``interval`` (defaults
1.28 s / 11.25 ms).  A page directed at BD_ADDR ``X`` reaches every
in-range controller currently page-scanning as ``X``; each candidate's
response delay is its uniformly distributed scan phase (how far away
its next window is).  The earliest responder wins the link.

With a single legitimate responder this just adds sub-second latency.
With *two* responders sharing a spoofed address — the SSP downgrade
baseline of Table II — it is a fair race, and the attacker wins only
about half the time.  The page blocking attack sidesteps the race by
never racing: the attacker becomes the initiator instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.core.types import BdAddr
from repro.sim.eventloop import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry


@dataclass
class AirFrame:
    """One over-the-air baseband frame (LMP PDU or ACL payload).

    LE traffic rides the same type with its own kinds: ``adv``
    (advertising PDUs), ``le-connect`` (CONNECT_IND), ``smp`` (Security
    Manager PDUs), ``le-control`` (LL control PDUs) and ``le-data``
    (encrypted or plaintext LE payloads).
    """

    kind: str  # "lmp" | "acl" | "adv" | "le-connect" | "smp" | "le-control" | "le-data"
    payload: Any
    encrypted: bool = False


class RadioPeer(Protocol):
    """What the medium needs to know about a controller."""

    name: str

    @property
    def bd_addr(self) -> BdAddr: ...

    @property
    def inquiry_scan_enabled(self) -> bool: ...

    @property
    def page_scan_enabled(self) -> bool: ...

    @property
    def page_scan_interval_s(self) -> float: ...

    @property
    def class_of_device_value(self) -> int: ...

    def on_page_reached(self, link: "PhysicalLink", initiator: "RadioPeer") -> None: ...

    def on_air_frame(self, link: "PhysicalLink", frame: AirFrame) -> None: ...

    def on_link_dropped(self, link: "PhysicalLink", reason: int) -> None: ...


class LePeer(Protocol):
    """What the medium needs to know about an LE link layer.

    Deliberately independent of :class:`RadioPeer`: a dual-mode device
    registers twice (its BR/EDR controller and its LE stack), an
    LE-only device registers only here.  Data frames on an established
    LE link ride the same :meth:`RadioMedium.send_frame` path, so an
    LE peer also implements ``on_air_frame``/``on_link_dropped``.
    """

    name: str

    @property
    def le_addr(self) -> BdAddr: ...

    @property
    def le_scan_enabled(self) -> bool: ...

    @property
    def le_connectable(self) -> bool: ...

    @property
    def adv_interval_s(self) -> float: ...

    def on_le_advertisement(self, advertiser: BdAddr, payload: Any) -> None: ...

    def on_le_connect(self, link: "PhysicalLink", initiator: "LePeer") -> None: ...

    def on_air_frame(self, link: "PhysicalLink", frame: AirFrame) -> None: ...

    def on_link_dropped(self, link: "PhysicalLink", reason: int) -> None: ...


@dataclass
class PhysicalLink:
    """A live baseband link between two controllers."""

    link_id: int
    initiator: RadioPeer
    responder: RadioPeer
    created_at: float
    alive: bool = True
    frames_exchanged: int = field(default=0)

    def peer_of(self, controller: RadioPeer) -> RadioPeer:
        if controller is self.initiator:
            return self.responder
        if controller is self.responder:
            return self.initiator
        raise ValueError(f"{controller.name} is not on link {self.link_id}")

    def involves(self, controller: RadioPeer) -> bool:
        return controller is self.initiator or controller is self.responder


@dataclass(frozen=True)
class InquiryResponse:
    """What a responder broadcasts back during inquiry."""

    bd_addr: BdAddr
    class_of_device: int
    clock_offset: int
    name: str = ""


# Air sniffer callback: (time, link_id, sender_name, frame).
AirSniffer = Callable[[float, int, str, AirFrame], None]

_FRAME_LATENCY = 0.000625  # one slot


@dataclass
class FrameFate:
    """A fault filter's verdict on one in-flight frame."""

    action: str = "deliver"  # "deliver" | "drop" | "mutate"
    payload: Any = None  # replacement payload when action == "mutate"
    extra_delay_s: float = 0.0


# Fault filter: (now, link, sender, frame) -> FrameFate.  Filters run
# after sniffers (a lost frame was still transmitted) and only when a
# fault plan attached one — the lossless path makes no RNG draws.
FrameFaultFilter = Callable[[float, "PhysicalLink", RadioPeer, AirFrame], FrameFate]


class RadioMedium:
    """The shared wireless channel all simulated controllers live on."""

    #: trace source name for radio-level events in merged timelines
    TRACE_SOURCE = "phy"

    def __init__(
        self,
        simulator: Simulator,
        rng: RngRegistry,
        tracer: Optional[Tracer] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.simulator = simulator
        self.rng = rng.stream("radio-medium")
        self.tracer = tracer if tracer is not None else Tracer()
        if metrics is None:
            from repro.obs.metrics import get_global_registry

            metrics = get_global_registry()
        self._m_pages = metrics.counter("phy.pages")
        self._m_page_responses = metrics.counter("phy.page_responses")
        self._m_page_timeouts = metrics.counter("phy.page_timeouts")
        self._m_page_latency = metrics.histogram("phy.page_response_latency")
        self._m_frames_sent = metrics.counter("phy.frames_sent")
        self._m_frames_lost = metrics.counter("phy.frames_lost")
        self._m_links_established = metrics.counter("phy.links_established")
        self._m_links_dropped = metrics.counter("phy.links_dropped")
        self._m_inquiries = metrics.counter("phy.inquiries")
        self._m_le_advertisements = metrics.counter("phy.le_advertisements")
        self._m_le_connects = metrics.counter("phy.le_connects")
        self._controllers: List[RadioPeer] = []
        # LE link layers share the medium but register separately; a
        # dual-mode device appears in both lists.  LE activity draws
        # from its own child stream so mixed worlds never perturb the
        # BR/EDR draw order (the golden-artifact determinism rule).
        self._le_peers: List["LePeer"] = []
        self._le_addr_index: Optional[Dict[BdAddr, List["LePeer"]]] = None
        self._le_rng = rng.stream("radio-medium:le")
        # Lazy BD_ADDR -> [peers] index so a page is O(matching peers)
        # instead of a scan over every registered controller (the
        # fleet-scale hot spot: ambient churn pages constantly).
        # Invalidated wholesale on register/unregister and on any
        # address change (spoofing) — rebuilt in registration order so
        # candidate RNG draws replay identically.
        self._addr_index: Optional[Dict[BdAddr, List[RadioPeer]]] = None
        self._links: Dict[int, PhysicalLink] = {}
        self._link_ids = itertools.count(1)
        self._sniffers: List[AirSniffer] = []
        # Visibility: by default every registered controller hears every
        # other one.  Pairs listed here are out of range of each other.
        self._blocked_pairs: set = set()
        # Failure injection: repro.faults filters judge each frame.
        # Lost frames still reach passive sniffers — they were
        # transmitted — but never the intended receiver.
        self._frame_fault_filters: List[FrameFaultFilter] = []
        self.frames_lost = 0

    # -- registration ------------------------------------------------------

    def register(self, controller: RadioPeer) -> None:
        if controller not in self._controllers:
            self._controllers.append(controller)
            self._addr_index = None

    def unregister(self, controller: RadioPeer) -> None:
        self._controllers.remove(controller)
        self._addr_index = None

    def notify_addr_changed(self, peer: Optional[RadioPeer] = None) -> None:
        """A registered peer's BD_ADDR changed (e.g. spoofing).

        :class:`~repro.controller.controller.Controller` calls this
        from its ``bd_addr`` setter; any custom :class:`RadioPeer`
        that mutates its address after registration must do the same
        or pages toward the new address may miss it.
        """
        self._addr_index = None

    def register_le(self, peer: "LePeer") -> None:
        if peer not in self._le_peers:
            self._le_peers.append(peer)
            self._le_addr_index = None

    def unregister_le(self, peer: "LePeer") -> None:
        if peer in self._le_peers:
            self._le_peers.remove(peer)
            self._le_addr_index = None

    def notify_le_addr_changed(self, peer: Optional["LePeer"] = None) -> None:
        """A registered LE peer's advertising address changed (spoofing)."""
        self._le_addr_index = None

    def _le_peers_for_addr(self, addr: BdAddr) -> List["LePeer"]:
        index = self._le_addr_index
        if index is None:
            index = {}
            for peer in self._le_peers:
                index.setdefault(peer.le_addr, []).append(peer)
            self._le_addr_index = index
        return index.get(addr, [])

    def _peers_for_addr(self, addr: BdAddr) -> List[RadioPeer]:
        index = self._addr_index
        if index is None:
            index = {}
            for peer in self._controllers:
                index.setdefault(peer.bd_addr, []).append(peer)
            self._addr_index = index
        return index.get(addr, [])

    def set_in_range(self, a: RadioPeer, b: RadioPeer, in_range: bool) -> None:
        """Make a pair of controllers (un)reachable from each other."""
        key = frozenset((a.name, b.name))
        if in_range:
            self._blocked_pairs.discard(key)
        else:
            self._blocked_pairs.add(key)

    def _reachable(self, a: RadioPeer, b: RadioPeer) -> bool:
        # Fast path: no range restrictions (the common case) costs one
        # truthiness check instead of a frozenset allocation per pair.
        if not self._blocked_pairs:
            return True
        return frozenset((a.name, b.name)) not in self._blocked_pairs

    def add_air_sniffer(self, sniffer: AirSniffer) -> None:
        """Attach a passive air sniffer (sees ciphertext, not plaintext)."""
        self._sniffers.append(sniffer)

    def remove_air_sniffer(self, sniffer: AirSniffer) -> None:
        if sniffer in self._sniffers:
            self._sniffers.remove(sniffer)

    def _sniff(
        self, now: float, link_id: int, sender_name: str, frame: AirFrame
    ) -> None:
        """Feed one frame to every sniffer, *before* fault filters run.

        A dropped or mutated frame was still transmitted — passive
        observers (air captures, the detection feed) always see the
        original, which is the ordering ``docs/faults.md`` promises.
        """
        for sniffer in self._sniffers:
            sniffer(now, link_id, sender_name, frame)

    # -- failure injection -------------------------------------------------

    def add_frame_fault_filter(self, fault_filter: FrameFaultFilter) -> None:
        """Attach a repro.faults frame filter (runs after sniffers)."""
        if fault_filter not in self._frame_fault_filters:
            self._frame_fault_filters.append(fault_filter)

    def _fault_fate(self, frame: AirFrame) -> FrameFate:
        """Combined filter verdict for a link-less frame (page traffic).

        Mutations are meaningless for the synthetic page/page-response
        frames, so only drop and extra delay survive.
        """
        extra = 0.0
        for fault_filter in self._frame_fault_filters:
            fate = fault_filter(self.simulator.now, None, None, frame)
            if fate.action == "drop":
                return FrameFate(action="drop")
            extra += fate.extra_delay_s
        return FrameFate(extra_delay_s=extra)

    # -- inquiry -----------------------------------------------------------

    def start_inquiry(
        self,
        source: RadioPeer,
        duration_s: float,
        on_response: Callable[[InquiryResponse], None],
        on_complete: Callable[[], None],
    ) -> None:
        """Broadcast an inquiry train; discoverable peers respond.

        Each responder answers at a random point inside the inquiry
        window (its inquiry-scan phase).
        """
        self._m_inquiries.inc()
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "phy-inquiry",
            f"inquiry from {source.name} ({duration_s:.2f}s)",
            initiator=source.name,
            duration_s=duration_s,
        )
        for peer in self._controllers:
            if peer is source or not self._reachable(source, peer):
                continue
            if not peer.inquiry_scan_enabled:
                continue
            delay = self.rng.uniform(0.01, max(0.02, duration_s * 0.8))
            response = InquiryResponse(
                bd_addr=peer.bd_addr,
                class_of_device=peer.class_of_device_value,
                clock_offset=self.rng.randrange(0, 0x8000),
                name=getattr(peer, "local_name", ""),
            )
            self.simulator.schedule(delay, on_response, response)
        self.simulator.schedule(duration_s, on_complete)

    # -- paging ------------------------------------------------------------

    def page(
        self,
        source: RadioPeer,
        target: BdAddr,
        timeout_s: float,
        on_result: Callable[[Optional[PhysicalLink]], None],
    ) -> None:
        """Page ``target``; the earliest-scanning matching responder wins.

        This is where the Table II baseline race happens: every in-range
        controller page-scanning as ``target`` (the victim accessory
        *and* the spoofing attacker) draws a response delay uniform in
        its scan interval, and only the winner gets the link.
        """
        self._m_pages.inc()
        now = self.simulator.now
        self.tracer.emit(
            now,
            self.TRACE_SOURCE,
            "phy-page",
            f"{source.name} pages {target}",
            initiator=source.name,
            target=str(target),
        )
        # The synthetic page-train frame goes to passive sniffers first
        # (it was transmitted), then to the fault filters which decide
        # whether anyone hears it.
        if self._sniffers:
            self._sniff(now, 0, source.name, AirFrame(kind="page", payload=b""))
        page_extra = 0.0
        if self._frame_fault_filters:
            # Page trains and page responses ride the same RF medium as
            # data frames, so phy faults perturb the Table II race too:
            # a dropped train means nobody hears the page, a dropped or
            # jittered response changes who wins.
            fate = self._fault_fate(AirFrame(kind="page", payload=b""))
            if fate.action == "drop":
                self.frames_lost += 1
                self._m_frames_lost.inc()
                self._m_page_timeouts.inc()
                self.tracer.emit(
                    self.simulator.now,
                    self.TRACE_SOURCE,
                    "phy-page",
                    f"page train from {source.name} lost on the air",
                )
                self.simulator.schedule(timeout_s, on_result, None)
                return
            page_extra = fate.extra_delay_s
        candidates: List[Tuple[float, RadioPeer]] = []
        for peer in self._peers_for_addr(target):
            if peer is source or not self._reachable(source, peer):
                continue
            if not peer.page_scan_enabled:
                continue
            delay = self.rng.uniform(0.0, peer.page_scan_interval_s)
            if self._sniffers:
                self._sniff(
                    now, 0, peer.name, AirFrame(kind="page-response", payload=b"")
                )
            if self._frame_fault_filters:
                fate = self._fault_fate(
                    AirFrame(kind="page-response", payload=b"")
                )
                if fate.action == "drop":
                    self.frames_lost += 1
                    self._m_frames_lost.inc()
                    self.tracer.emit(
                        self.simulator.now,
                        self.TRACE_SOURCE,
                        "phy-page",
                        f"page response from {peer.name} lost on the air",
                    )
                    continue
                delay += page_extra + fate.extra_delay_s
            candidates.append((delay, peer))
        if not candidates:
            self._m_page_timeouts.inc()
            self.simulator.schedule(timeout_s, on_result, None)
            return
        winner_delay, winner = min(candidates, key=lambda item: item[0])
        if winner_delay > timeout_s:
            self._m_page_timeouts.inc()
            self.simulator.schedule(timeout_s, on_result, None)
            return
        self._m_page_responses.inc()
        self._m_page_latency.observe(winner_delay)
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "phy-page",
            f"{winner.name} wins the page response race",
            latency_s=winner_delay,
            candidates=len(candidates),
        )
        self.simulator.schedule(
            winner_delay, self._establish, source, winner, on_result
        )

    def _establish(
        self,
        initiator: RadioPeer,
        responder: RadioPeer,
        on_result: Callable[[Optional[PhysicalLink]], None],
    ) -> None:
        link = PhysicalLink(
            link_id=next(self._link_ids),
            initiator=initiator,
            responder=responder,
            created_at=self.simulator.now,
        )
        self._links[link.link_id] = link
        self._m_links_established.inc()
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "phy-link",
            f"link {link.link_id} up: {initiator.name} -> {responder.name}",
        )
        responder.on_page_reached(link, initiator)
        on_result(link)

    # -- LE advertising / connection ---------------------------------------

    def le_advertise(self, source: "LePeer", payload: Any) -> None:
        """Broadcast one advertising PDU to every in-range LE scanner.

        Passive sniffers hear it first (advertising is cleartext by
        definition), then fault filters decide whether scanners do.
        """
        self._m_le_advertisements.inc()
        now = self.simulator.now
        frame = AirFrame(kind="adv", payload=payload)
        if self._sniffers:
            self._sniff(now, 0, source.name, frame)
        if self._frame_fault_filters:
            fate = self._fault_fate(frame)
            if fate.action == "drop":
                self.frames_lost += 1
                self._m_frames_lost.inc()
                return
        addr = source.le_addr
        for peer in self._le_peers:
            if peer is source or not peer.le_scan_enabled:
                continue
            if not self._reachable(source, peer):
                continue
            self.simulator.schedule(
                _FRAME_LATENCY, peer.on_le_advertisement, addr, payload
            )

    def le_connect(
        self,
        initiator: "LePeer",
        target: BdAddr,
        on_result: Callable[[Optional[PhysicalLink]], None],
    ) -> None:
        """Send a CONNECT_IND toward ``target``.

        When the CONNECT_IND is lost to a fault filter, or no
        connectable peer advertises as ``target``, *nobody answers*:
        ``on_result`` is never invoked and the initiator's
        connection-establishment guard (mirroring
        ``Gap.CONNECT_TIMEOUT``) is what fails the operation.  That is
        deliberate — a blackholed CONNECT_IND must not hang a trial.
        """
        self._m_le_connects.inc()
        now = self.simulator.now
        self.tracer.emit(
            now,
            self.TRACE_SOURCE,
            "phy-le-connect",
            f"{initiator.name} sends CONNECT_IND to {target}",
            initiator=initiator.name,
            target=str(target),
        )
        frame = AirFrame(kind="le-connect", payload=b"")
        if self._sniffers:
            self._sniff(now, 0, initiator.name, frame)
        extra = 0.0
        if self._frame_fault_filters:
            fate = self._fault_fate(frame)
            if fate.action == "drop":
                self.frames_lost += 1
                self._m_frames_lost.inc()
                self.tracer.emit(
                    now,
                    self.TRACE_SOURCE,
                    "phy-le-connect",
                    f"CONNECT_IND from {initiator.name} lost on the air",
                )
                return
            extra = fate.extra_delay_s
        for peer in self._le_peers_for_addr(target):
            if peer is initiator or not peer.le_connectable:
                continue
            if not self._reachable(initiator, peer):
                continue
            # The initiator must catch an advertising event to answer
            # it; its wait is a uniform phase of the advertising
            # interval, drawn from the LE child stream.
            delay = self._le_rng.uniform(0.0, max(peer.adv_interval_s, 0.001))
            self.simulator.schedule(
                delay + extra, self._le_establish, initiator, peer, on_result
            )
            return

    def _le_establish(
        self,
        initiator: "LePeer",
        responder: "LePeer",
        on_result: Callable[[Optional[PhysicalLink]], None],
    ) -> None:
        link = PhysicalLink(
            link_id=next(self._link_ids),
            initiator=initiator,  # type: ignore[arg-type]
            responder=responder,  # type: ignore[arg-type]
            created_at=self.simulator.now,
        )
        self._links[link.link_id] = link
        self._m_links_established.inc()
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "phy-link",
            f"LE link {link.link_id} up: {initiator.name} -> {responder.name}",
            transport="le",
        )
        responder.on_le_connect(link, initiator)
        on_result(link)

    # -- data --------------------------------------------------------------

    def send_frame(self, link: PhysicalLink, sender: RadioPeer, frame: AirFrame) -> None:
        """Deliver a frame to the other end of a link (one slot later)."""
        if not link.alive:
            return
        receiver = link.peer_of(sender)
        link.frames_exchanged += 1
        self._m_frames_sent.inc()
        now = self.simulator.now
        if self._sniffers:
            self._sniff(now, link.link_id, sender.name, frame)
        delay = _FRAME_LATENCY
        if self._frame_fault_filters:
            for fault_filter in self._frame_fault_filters:
                fate = fault_filter(now, link, sender, frame)
                if fate.action == "drop":
                    self.frames_lost += 1
                    self._m_frames_lost.inc()
                    return
                if fate.action == "mutate":
                    frame = AirFrame(
                        kind=frame.kind,
                        payload=fate.payload,
                        encrypted=frame.encrypted,
                    )
                delay += fate.extra_delay_s
        self.simulator.schedule(delay, self._deliver, link, receiver, frame)

    def _deliver(self, link: PhysicalLink, receiver: RadioPeer, frame: AirFrame) -> None:
        if link.alive:
            receiver.on_air_frame(link, frame)

    def drop_link(self, link: PhysicalLink, reason: int) -> None:
        """Tear a link down; both ends are notified."""
        if not link.alive:
            return
        link.alive = False
        self._links.pop(link.link_id, None)
        self._m_links_dropped.inc()
        self.tracer.emit(
            self.simulator.now,
            self.TRACE_SOURCE,
            "phy-link",
            f"link {link.link_id} dropped (reason={reason:#04x})",
        )
        self.simulator.schedule(_FRAME_LATENCY, link.initiator.on_link_dropped, link, reason)
        self.simulator.schedule(_FRAME_LATENCY, link.responder.on_link_dropped, link, reason)

    @property
    def active_links(self) -> List[PhysicalLink]:
        return list(self._links.values())
