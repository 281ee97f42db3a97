import math

import pytest

from aqmsim.engine import EventLoop, Rng
from aqmsim.metrics import MetricsCollector
from aqmsim.qdisc import Discipline, Packet
from aqmsim.scenario import Scenario, sweep_scenarios
from aqmsim.topology import Link, build_dumbbell, build_flow_setups, link_transmit
from aqmsim.transport import AppKind, TcpVariant


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


class TestFlowSetups:
    def test_model1_counts(self):
        setups = build_flow_setups(Scenario(n_tcp=33, n_udp=1))
        assert len(setups) == 34
        assert setups[0].kind == "udp" and setups[0].flow_id == 1
        assert all(s.kind == "tcp" for s in setups[1:])

    def test_model2_point(self):
        setups = build_flow_setups(Scenario(n_tcp=22, n_udp=3))
        assert sum(1 for s in setups if s.kind == "udp") == 3
        assert sum(1 for s in setups if s.kind == "tcp") == 22

    def test_scenario_defaults_and_overrides_applied(self):
        scenario = Scenario(
            n_tcp=2, n_udp=1, tcp_variant=TcpVariant.VEGAS, access_delay_s=0.002,
            flow_overrides={3: {"variant": TcpVariant.RENO, "start_s": 0.5}},
        )
        setups = build_flow_setups(scenario)
        assert [s.variant for s in setups[1:]] == [TcpVariant.VEGAS, TcpVariant.RENO]
        assert [s.start_s for s in setups] == [0.0, 0.0, 0.5]
        assert all(s.access_delay_s == 0.002 and s.access_bps == 10e6 for s in setups)


def build(scenario):
    loop = EventLoop()
    rng = Rng(scenario.seed)
    collector = MetricsCollector(
        scenario.warmup_s, scenario.duration_s, scenario.discipline, scenario.qdisc_params()
    )
    dumbbell = build_dumbbell(scenario, loop, rng, collector)
    for flow_id in dumbbell.sources:
        collector.register_flow(flow_id)
    return loop, collector, dumbbell


class TestBuildDumbbell:
    def test_model1_shape(self):
        scenario = Scenario(discipline=Discipline.CHOKED, n_tcp=33, n_udp=1)
        loop, collector, dumbbell = build(scenario)
        assert len(dumbbell.sources) == 34
        assert dumbbell.router.state.params.capacity == 100
        assert dumbbell.flow_kinds[1] == "udp"
        assert dumbbell.flow_kinds[34] == "tcp"

    def test_rtt_mix_overrides_applied(self):
        scenario = [s for _, s in sweep_scenarios("rtt-mix", seed=1)][0]
        loop, collector, dumbbell = build(scenario)
        tcp_delays = [
            dumbbell.access_links[f].prop_delay
            for f, kind in dumbbell.flow_kinds.items()
            if kind == "tcp"
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
            if dumbbell.flow_kinds[f] == "tcp"
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
            assert collector.emitted[flow_id] == (
                collector.delivered[flow_id]
                + collector.dropped[flow_id]
                + residual[flow_id]
            )

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
