"""Dumbbell topology and link model.

Every data packet traverses: its sender's access link, the bottleneck
queue (the qdisc under test), the bottleneck link, then its sink. ACKs
ride a per-flow fixed-delay reverse path; only the forward direction is
ever queued.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import qdisc
from .engine import EventKind, EventLoop, Rng
from .qdisc import Packet, QdiscState
from .transport import ACK_SIZE_BITS, CbrSource, TcpSink, TcpSource, UdpSink


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


class Dumbbell:
    """Built topology: each flow's source and sink around one bottleneck,
    whose qdisc and link service loop it owns.

    The packet in service has left the buffer; a new service starts
    whenever the link goes idle and the buffer is non-empty.
    """

    def __init__(self, scenario, loop: EventLoop, rng: Rng, observer) -> None:
        self.loop = loop
        self.rng = rng
        self.observer = observer
        self.state = QdiscState(params=scenario.qdisc_params(), discipline=scenario.discipline)
        self.link = Link(scenario.bottleneck_bps, scenario.bottleneck_delay_s)
        self.in_service: Packet | None = None
        self.sources: dict[int, TcpSource | CbrSource] = {}
        # flow id -> (its sink, the fixed delay of its ACKs' reverse path)
        self.ack_paths: dict[int, tuple[TcpSink | UdpSink, float]] = {}
        # The queue is sampled at k * sample_period_s for k = 0..n_samples-1.
        # One sample event is pending at a time: each schedules the next, at
        # an exact product of k and the period rather than a running sum.
        self.sample_period_s = scenario.sample_period_s
        self.n_samples = int(scenario.duration_s / scenario.sample_period_s) + 1
        loop.on(EventKind.SOURCE_EMIT, self._on_source_emit)
        loop.on(EventKind.PACKET_ARRIVAL_AT_QUEUE, self.on_packet_arrival)
        loop.on(EventKind.TRANSMISSION_COMPLETE, self.on_transmission_complete)
        loop.on(EventKind.PROPAGATION_DELIVERY, self._on_delivery)
        loop.on(EventKind.ACK_DELIVERY, self._on_ack_delivery)
        loop.on(EventKind.TIMER_EXPIRY, self._on_rto)
        loop.on(EventKind.QUEUE_SAMPLE, self._on_queue_sample)

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

    def _on_source_emit(self, now: float, flow_id: int) -> None:
        self.sources[flow_id].on_source_emit(now)

    def _on_delivery(self, now: float, pk: Packet) -> None:
        self.observer.on_delivery(pk, now)
        sink, ack_delay = self.ack_paths[pk.flow_id]
        ack = sink.on_packet(pk)
        if ack is not None:
            ack_seq, trigger_was_retx = ack
            self.loop.schedule(
                now + ack_delay,
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
        self.observer.sample_queue(now, len(self.state.buffer), self.state.q_a)
        k += 1
        if k < self.n_samples:
            self.loop.schedule(k * self.sample_period_s, EventKind.QUEUE_SAMPLE, k)

    def residual_packets(self) -> dict[int, int]:
        """Per-flow count of data packets still inside the network:
        queued, in service, or riding a pending link event."""
        residual: dict[int, int] = {fid: 0 for fid in self.sources}
        for pk in self.state.buffer:
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


def build_dumbbell(scenario, loop: EventLoop, rng: Rng, observer) -> Dumbbell:
    """Build the Dumbbell, then announce each flow to the observer and wire
    its source, access link and sink; schedule every flow's first emission,
    then the first queue sample."""
    dumbbell = Dumbbell(scenario, loop, rng, observer)

    for setup in scenario.flows():
        flow_id = setup.flow_id
        observer.on_flow(flow_id, setup.kind)
        access = Link(setup.access_bps, setup.access_delay_s)
        ack_delay = setup.access_delay_s + scenario.bottleneck_delay_s + ACK_SIZE_BITS / setup.access_bps

        def transmit(pk: Packet, _access=access) -> None:
            observer.on_emit(pk)
            loop.schedule(
                link_transmit(_access, pk, loop.now),
                EventKind.PACKET_ARRIVAL_AT_QUEUE,
                pk,
            )

        def emit_at(t: float, _fid=flow_id) -> None:
            loop.schedule(t, EventKind.SOURCE_EMIT, _fid)

        if setup.kind == "udp":
            source = CbrSource(
                flow_id,
                rate_bps=scenario.udp_rate_bps,
                packet_size_bits=scenario.packet_size_bits,
                transmit=transmit,
                schedule_emit_at=emit_at,
            )
            sink = UdpSink()
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
                schedule_emit_at=emit_at,
                rng=rng,
                http_page_mean_pkts=scenario.http_page_mean_pkts,
                http_think_mean_s=scenario.http_think_mean_s,
            )
            sink = TcpSink()
            # Stagger TCP starts so flows do not move in lockstep.
            start = setup.start_s + rng.random() * scenario.tcp_start_spread_s
        dumbbell.sources[flow_id] = source
        dumbbell.ack_paths[flow_id] = (sink, ack_delay)
        emit_at(start)

    loop.schedule(0.0, EventKind.QUEUE_SAMPLE, 0)
    return dumbbell
