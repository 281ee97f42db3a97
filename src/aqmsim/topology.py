"""Dumbbell topology and link model.

Every data packet traverses: its sender's access link, the bottleneck
queue (the qdisc under test), the bottleneck link, then its sink. ACKs
ride a per-flow fixed-delay reverse path; only the forward direction is
ever queued.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import qdisc
from .engine import EventKind, EventLoop, Rng
from .qdisc import Packet, QdiscState
from .transport import (
    ACK_SIZE_BITS,
    AppKind,
    CbrSource,
    TcpSink,
    TcpSource,
    TcpVariant,
    UdpSink,
)


@dataclass(slots=True)
class Link:
    """Store-and-forward link: transmissions serialize, never overlap."""

    capacity_bps: float
    prop_delay: float
    busy_until: float = 0.0


def link_transmit(link: Link, pk: Packet, now: float) -> float:
    """Hand a packet to the link; returns its delivery time at the far end."""
    start = max(now, link.busy_until)
    link.busy_until = start + pk.size_bits / link.capacity_bps
    return link.busy_until + link.prop_delay


class BottleneckRouter:
    """Owns the qdisc and the bottleneck link's service loop.

    The packet in service has left the buffer; a new service starts
    whenever the link goes idle and the buffer is non-empty.
    """

    def __init__(
        self,
        state: QdiscState,
        link: Link,
        loop: EventLoop,
        rng: Rng,
        observer,
    ) -> None:
        self.state = state
        self.link = link
        self.loop = loop
        self.rng = rng
        self.observer = observer
        self.in_service: Packet | None = None

    def on_packet_arrival(self, now: float, pk: Packet) -> None:
        q_c_before = len(self.state.buffer)
        decision = qdisc.enqueue(self.state, pk, self.rng, now)
        self.observer.on_arrival(now, pk, decision, q_c_before, self.state.q_a)
        if decision.outcome is qdisc.Outcome.ADMIT and self.in_service is None:
            self._start_service(now)

    def _start_service(self, now: float) -> None:
        pk = qdisc.dequeue(self.state)
        assert pk is not None
        self.in_service = pk
        self.observer.on_service_start(pk, now)
        self.loop.schedule(
            now + pk.size_bits / self.link.capacity_bps,
            EventKind.TRANSMISSION_COMPLETE,
            pk,
        )

    def on_transmission_complete(self, now: float, pk: Packet) -> None:
        self.loop.schedule(now + self.link.prop_delay, EventKind.PROPAGATION_DELIVERY, pk)
        self.in_service = None
        if self.state.buffer:
            self._start_service(now)


@dataclass
class FlowSetup:
    """Resolved per-flow wiring parameters."""

    flow_id: int
    kind: str  # "tcp" | "udp"
    variant: TcpVariant
    app: AppKind
    access_bps: float
    access_delay_s: float
    start_s: float = 0.0


@dataclass
class Dumbbell:
    """Built topology: sources and sinks around one bottleneck router."""

    loop: EventLoop
    router: BottleneckRouter
    sources: dict[int, TcpSource | CbrSource] = field(default_factory=dict)
    sinks: dict[int, TcpSink | UdpSink] = field(default_factory=dict)
    access_links: dict[int, Link] = field(default_factory=dict)
    reverse_delay: dict[int, float] = field(default_factory=dict)
    flow_kinds: dict[int, str] = field(default_factory=dict)
    observer: object = None
    sample_period_s: float = 0.0
    n_samples: int = 0

    def _register_handlers(self) -> None:
        self.loop.on(EventKind.SOURCE_EMIT, self._on_source_emit)
        self.loop.on(EventKind.PACKET_ARRIVAL_AT_QUEUE, self.router.on_packet_arrival)
        self.loop.on(EventKind.TRANSMISSION_COMPLETE, self.router.on_transmission_complete)
        self.loop.on(EventKind.PROPAGATION_DELIVERY, self._on_delivery)
        self.loop.on(EventKind.ACK_DELIVERY, self._on_ack_delivery)
        self.loop.on(EventKind.TIMER_EXPIRY, self._on_rto)
        self.loop.on(EventKind.QUEUE_SAMPLE, self._on_queue_sample)

    def start_queue_sampler(self, period_s: float, n_samples: int) -> None:
        """Sample the queue at k * period_s for k = 0..n_samples-1.

        One sample event is pending at a time: each schedules the next, at
        an exact product of k and the period rather than a running sum.
        """
        self.sample_period_s = period_s
        self.n_samples = n_samples
        if n_samples > 0:
            self.loop.schedule(0.0, EventKind.QUEUE_SAMPLE, 0)

    def _on_source_emit(self, now: float, flow_id: int) -> None:
        self.sources[flow_id].on_source_emit(now)

    def _on_delivery(self, now: float, pk: Packet) -> None:
        self.observer.on_delivery(pk, now)
        ack = self.sinks[pk.flow_id].on_packet(pk)
        if ack is not None:
            ack_seq, trigger_was_retx = ack
            self.loop.schedule(
                now + self.reverse_delay[pk.flow_id],
                EventKind.ACK_DELIVERY,
                (pk.flow_id, ack_seq, trigger_was_retx),
            )

    def _on_ack_delivery(self, now: float, payload: tuple[int, int, bool]) -> None:
        flow_id, ack_seq, trigger_was_retx = payload
        self.sources[flow_id].on_ack(ack_seq, now, trigger_was_retx)

    def _on_rto(self, now: float, payload: tuple[int, int]) -> None:
        flow_id, token = payload
        self.sources[flow_id].on_timer(token, now)

    def _on_queue_sample(self, now: float, k: int) -> None:
        self.observer.sample_queue(now, len(self.router.state.buffer), self.router.state.q_a)
        k += 1
        if k < self.n_samples:
            self.loop.schedule(k * self.sample_period_s, EventKind.QUEUE_SAMPLE, k)

    def residual_packets(self) -> dict[int, int]:
        """Per-flow count of data packets still inside the network:
        queued, in service, or riding a pending link event."""
        residual: dict[int, int] = {fid: 0 for fid in self.sources}
        for pk in self.router.state.buffer:
            residual[pk.flow_id] += 1
        # The in-service packet rides its pending TRANSMISSION_COMPLETE
        # event, so it is not counted separately.
        data_kinds = (
            EventKind.PACKET_ARRIVAL_AT_QUEUE,
            EventKind.TRANSMISSION_COMPLETE,
            EventKind.PROPAGATION_DELIVERY,
        )
        for event in self.loop.pending_events():
            if event.kind in data_kinds:
                residual[event.payload.flow_id] += 1
        return residual


def build_flow_setups(scenario) -> list[FlowSetup]:
    """One setup per flow of a validated scenario, overrides applied.
    Flow numbering: UDP flows first (1..n_udp), then TCP."""
    setups = [
        FlowSetup(
            flow_id,
            "udp" if flow_id <= scenario.n_udp else "tcp",
            scenario.tcp_variant,
            scenario.app,
            scenario.access_bps,
            scenario.access_delay_s,
        )
        for flow_id in range(1, scenario.n_flows + 1)
    ]
    for flow_id, fields_ in scenario.flow_overrides.items():
        for name, value in fields_.items():
            setattr(setups[flow_id - 1], name, value)
    return setups


def build_dumbbell(scenario, loop: EventLoop, rng: Rng, observer) -> Dumbbell:
    """Construct sources, access links, the bottleneck and sinks, wire all
    event handlers, and schedule every flow's first emission."""
    state = QdiscState(params=scenario.qdisc_params(), discipline=scenario.discipline)
    bottleneck = Link(scenario.bottleneck_bps, scenario.bottleneck_delay_s)
    router = BottleneckRouter(state, bottleneck, loop, rng, observer)
    dumbbell = Dumbbell(loop=loop, router=router, observer=observer)
    dumbbell._register_handlers()

    for setup in build_flow_setups(scenario):
        flow_id = setup.flow_id
        access = Link(setup.access_bps, setup.access_delay_s)
        dumbbell.access_links[flow_id] = access
        dumbbell.flow_kinds[flow_id] = setup.kind
        dumbbell.reverse_delay[flow_id] = (
            setup.access_delay_s
            + scenario.bottleneck_delay_s
            + ACK_SIZE_BITS / setup.access_bps
        )

        def transmit(pk: Packet, _access=access) -> None:
            observer.on_emit(pk)
            loop.schedule(
                link_transmit(_access, pk, loop.now),
                EventKind.PACKET_ARRIVAL_AT_QUEUE,
                pk,
            )

        if setup.kind == "udp":
            source = CbrSource(
                flow_id,
                rate_bps=scenario.udp_rate_bps,
                packet_size_bits=scenario.packet_size_bits,
                transmit=transmit,
                schedule_emit_at=lambda t, _fid=flow_id: loop.schedule(
                    t, EventKind.SOURCE_EMIT, _fid
                ),
            )
            dumbbell.sinks[flow_id] = UdpSink(flow_id)
            start = setup.start_s
        else:
            source = TcpSource(
                flow_id,
                variant=setup.variant,
                app_kind=setup.app,
                packet_size_bits=scenario.packet_size_bits,
                transmit=transmit,
                arm_timer=lambda deadline, token, _fid=flow_id: loop.schedule(
                    deadline, EventKind.TIMER_EXPIRY, (_fid, token)
                ),
                schedule_emit=lambda delay, _fid=flow_id: loop.schedule(
                    loop.now + delay, EventKind.SOURCE_EMIT, _fid
                ),
                rng=rng,
                http_page_mean_pkts=scenario.http_page_mean_pkts,
                http_think_mean_s=scenario.http_think_mean_s,
            )
            dumbbell.sinks[flow_id] = TcpSink(flow_id)
            # Stagger TCP starts so flows do not move in lockstep.
            start = setup.start_s + rng.random() * scenario.tcp_start_spread_s
        dumbbell.sources[flow_id] = source
        loop.schedule(start, EventKind.SOURCE_EMIT, flow_id)

    return dumbbell
