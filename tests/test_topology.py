import math
from collections import Counter

import pytest

from aqmsim.engine import EventKind, EventLoop, Rng
from aqmsim.metrics import MetricsCollector
from aqmsim.qdisc import Discipline, Packet
from aqmsim.scenario import Scenario, sweep_scenarios
from aqmsim.topology import Link, build_dumbbell, link_transmit
from aqmsim.transport import ACK_SIZE_BITS, AppKind, TcpVariant


class TestLinkTransmit:
    def test_idle_link_serialization_plus_propagation(self):
        link = Link(capacity_bps=1e6, prop_delay=0.010)
        t = link_transmit(link, Packet(1, 0, size_bits=8000), now=5.0)
        assert t == pytest.approx(5.0 + 0.008 + 0.010)

    def test_back_to_back_serializations_never_overlap(self):
        link = Link(capacity_bps=1e6, prop_delay=0.010)
        first = link_transmit(link, Packet(1, 0, size_bits=8000), now=0.0)
        second = link_transmit(link, Packet(1, 1, size_bits=8000), now=0.001)
        assert second - first == pytest.approx(0.008)
        assert link.busy_until == pytest.approx(0.016)

    def test_infinite_capacity_zero_delay_limit(self):
        link = Link(capacity_bps=math.inf, prop_delay=0.0)
        assert link_transmit(link, Packet(1, 0), now=2.0) == 2.0


def build(scenario):
    loop = EventLoop()
    rng = Rng(scenario.seed)
    collector = MetricsCollector(
        scenario.warmup_s, scenario.duration_s, scenario.discipline, scenario.qdisc_params()
    )
    dumbbell = build_dumbbell(scenario, loop, rng, collector)
    return loop, collector, dumbbell


class TestBuildDumbbell:
    def test_model1_shape(self):
        scenario = Scenario(discipline=Discipline.CHOKED, n_tcp=33, n_udp=1)
        loop, collector, dumbbell = build(scenario)
        assert len(dumbbell.sources) == 34
        assert dumbbell.state.params.capacity == 100
        assert collector.flow_stats[1].kind == "udp"
        assert collector.flow_stats[34].kind == "tcp"

    def test_build_announces_every_flow_to_the_observer(self):
        scenario = Scenario(discipline=Discipline.CHOKED, n_tcp=33, n_udp=1)
        collector = MetricsCollector(scenario.warmup_s, scenario.duration_s, scenario.discipline)
        build_dumbbell(scenario, EventLoop(), Rng(scenario.seed), collector)
        assert list(collector.flow_stats) == list(range(1, 35))
        assert [stats.kind for stats in collector.flow_stats.values()] == ["udp"] + ["tcp"] * 33

    def test_build_leaves_first_emissions_and_first_queue_sample_pending(self):
        scenario = Scenario(discipline=Discipline.CHOKED, n_tcp=33, n_udp=1)
        loop, collector, dumbbell = build(scenario)
        pending = Counter(event.kind for event in loop.pending_events())
        assert pending == {EventKind.SOURCE_EMIT: 34, EventKind.QUEUE_SAMPLE: 1}

    def test_rtt_mix_overrides_applied(self):
        scenario = [s for _, s in sweep_scenarios("rtt-mix", seed=1)][0]
        loop, collector, dumbbell = build(scenario)
        # The reverse path is the access delay plus the bottleneck delay
        # plus the ACK's serialization on the access link.
        tcp_delays = [
            dumbbell.ack_paths[f][1] - scenario.bottleneck_delay_s - ACK_SIZE_BITS / scenario.access_bps
            for f, stats in collector.flow_stats.items()
            if stats.kind == "tcp"
        ]
        assert sorted(set(round(d, 6) for d in tcp_delays)) == [0.0, 0.015]
        assert sum(1 for d in tcp_delays if d > 0.01) == 11

    def test_variant_override(self):
        scenario = [
            s for _, s in sweep_scenarios("reno-vs-vegas", seed=1)
            if s.discipline is Discipline.CHOKED
        ][0]
        loop, collector, dumbbell = build(scenario)
        assert dumbbell.sources[2].variant is TcpVariant.RENO
        assert dumbbell.sources[3].variant is TcpVariant.VEGAS

    def test_web_mix_app_split(self):
        scenario = [
            s for _, s in sweep_scenarios("web-mix", seed=1)
            if s.discipline is Discipline.CHOKED
        ][0]
        loop, collector, dumbbell = build(scenario)
        kinds = [
            dumbbell.sources[f].app_kind
            for f in sorted(dumbbell.sources)
            if collector.flow_stats[f].kind == "tcp"
        ]
        assert kinds.count(AppKind.FTP) == 15
        assert kinds.count(AppKind.HTTP) == 15


class TestForwardPath:
    def run_small(self, discipline=Discipline.DROPTAIL, duration=5.0):
        scenario = Scenario(
            discipline=discipline, n_tcp=2, n_udp=1, duration_s=duration,
            warmup_s=0.5, seed=3,
        )
        loop, collector, dumbbell = build(scenario)
        order = {"service": [], "delivery": []}
        orig_service = collector.on_service_start
        orig_delivery = collector.on_delivery

        def on_service(pk, now):
            order["service"].append((now, pk.flow_id, pk.seq))
            orig_service(pk, now)

        def on_delivery(pk, now):
            order["delivery"].append((now, pk.flow_id, pk.seq))
            orig_delivery(pk, now)

        collector.on_service_start = on_service
        collector.on_delivery = on_delivery
        loop.run_until(duration)
        return scenario, collector, dumbbell, order

    def test_bottleneck_never_exceeds_capacity(self):
        scenario, collector, dumbbell, order = self.run_small()
        deliveries = order["delivery"]
        # deliveries are spaced by at least the serialization time
        times = [t for t, _, _ in deliveries]
        gaps = [b - a for a, b in zip(times, times[1:])]
        min_gap = 8000 / scenario.bottleneck_bps
        assert all(g >= min_gap - 1e-9 for g in gaps)

    def test_fifo_service_order(self):
        _, _, _, order = self.run_small()
        starts = [t for t, _, _ in order["service"]]
        assert starts == sorted(starts)
        # service order equals delivery order; the service log may lead by
        # whatever was still on the wire at the end of the run
        delivered = [x[1:] for x in order["delivery"]]
        assert [x[1:] for x in order["service"]][: len(delivered)] == delivered

    def test_conservation_exact(self):
        scenario, collector, dumbbell, _ = self.run_small(Discipline.CHOKED, duration=20.0)
        residual = dumbbell.residual_packets()
        for flow_id in dumbbell.sources:
            stats = collector.flow_stats[flow_id]
            assert stats.emitted == stats.delivered + stats.dropped + residual[flow_id]

    def test_bins_hold_every_delivered_bit(self):
        scenario, collector, dumbbell, _ = self.run_small(Discipline.CHOKED, duration=10.0)
        for stats in collector.flow_stats.values():
            assert stats.delivered > 0
            assert sum(stats.bins.values()) == stats.delivered * scenario.packet_size_bits

    def test_cbr_emissions_form_arithmetic_sequence(self):
        scenario = Scenario(
            discipline=Discipline.DROPTAIL, n_tcp=0, n_udp=1,
            duration_s=2.0, warmup_s=0.5, seed=1,
        )
        loop, collector, dumbbell = build(scenario)
        emit_times = []
        orig = collector.on_emit
        collector.on_emit = lambda pk: (emit_times.append(loop.now), orig(pk))
        loop.run_until(2.0)
        interval = 8000 / scenario.udp_rate_bps
        for i, t in enumerate(emit_times):
            assert t == pytest.approx(i * interval, abs=1e-9)
