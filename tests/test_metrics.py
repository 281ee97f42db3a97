import pytest
from hypothesis import given, strategies as st

from aqmsim.harness import run_experiment
from aqmsim.metrics import (
    FlowStats,
    MetricsCollector,
    goodput,
    jain_index,
    throughput,
)
from aqmsim.qdisc import (
    Discipline,
    EnqueueDecision,
    Outcome,
    Packet,
    QdiscParams,
    drawing_factor,
    drawing_split,
)
from aqmsim.scenario import Scenario


class TestThroughput:
    def test_definition(self):
        stats = FlowStats(1, "tcp", bits_delivered=1_000_000)
        assert throughput(stats, (0.0, 10.0)) == pytest.approx(100_000.0)

    def test_zero_deliveries(self):
        stats = FlowStats(1, "tcp", bits_delivered=0)
        assert throughput(stats, (0.0, 10.0)) == 0.0

    def test_empty_window_rejected(self):
        stats = FlowStats(1, "tcp")
        with pytest.raises(ValueError):
            throughput(stats, (5.0, 5.0))


class TestGoodput:
    def test_tcp_formula(self):
        stats = FlowStats(1, "tcp", bits_delivered=10_000_000, bits_retransmitted_delivered=1_000_000)
        assert goodput(stats, (0.0, 10.0)) == pytest.approx(900_000.0)

    def test_no_retransmissions_equals_throughput(self):
        stats = FlowStats(1, "tcp", bits_delivered=5_000_000)
        assert goodput(stats, (0.0, 10.0)) == throughput(stats, (0.0, 10.0))

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            goodput(FlowStats(1, "tcp"), (5.0, 5.0))

    def test_goodput_never_exceeds_throughput(self):
        stats = FlowStats(1, "tcp", bits_delivered=10_000_000, bits_retransmitted_delivered=400_000)
        assert goodput(stats, (0.0, 10.0)) <= throughput(stats, (0.0, 10.0))


class TestJainIndex:
    def test_all_equal_is_one(self):
        assert jain_index([5.0] * 7) == pytest.approx(1.0)

    def test_one_flow_takes_all(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_hand_value(self):
        assert jain_index([3.0, 1.0]) == pytest.approx(0.8)

    def test_sums_left_to_right(self):
        # A compensated sum (math.fsum, or sum() from Python 3.12) gives 0.9999999999999998.
        assert jain_index([0.1] * 10) == 0.9999999999999993

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jain_index([0.0, 0.0])
        with pytest.raises(ValueError):
            jain_index([])

    # Shares are bit rates: zero or a sane positive magnitude.
    share_lists = st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e6)), min_size=1, max_size=40
    ).filter(lambda xs: any(xs))

    @given(share_lists, st.floats(1e-3, 1e3))
    def test_scale_invariance(self, shares, scale):
        base = jain_index(shares)
        scaled = jain_index([x * scale for x in shares])
        assert scaled == pytest.approx(base, rel=1e-12)

    @given(share_lists)
    def test_bounds(self, shares):
        index = jain_index(shares)
        n = len(shares)
        assert 1.0 / n - 1e-12 <= index <= 1.0 + 1e-12


def serviced(collector, enqueue_time, service_start):
    collector.on_service_start(Packet(1, 0, enqueue_time=enqueue_time), service_start)


class TestQueuingDelay:
    def test_single_sample(self):
        collector = MetricsCollector(0.0, 10.0)
        serviced(collector, 1.0, 1.5)
        assert collector.mean_queuing_delay() == pytest.approx(0.5)

    def test_instant_service(self):
        collector = MetricsCollector(0.0, 10.0)
        for t in (0.0, 1.0, 2.0):
            serviced(collector, t, t)
        assert collector.mean_queuing_delay() == 0.0

    def test_service_before_warmup_excluded(self):
        collector = MetricsCollector(5.0, 10.0)
        serviced(collector, 1.0, 4.0)
        serviced(collector, 6.0, 6.5)
        assert collector.delay_count == 1
        assert collector.mean_queuing_delay() == pytest.approx(0.5)

    def test_empty_rejected(self):
        collector = MetricsCollector(5.0, 10.0)
        serviced(collector, 1.0, 4.0)  # before warm-up: not a sample
        with pytest.raises(ValueError):
            collector.mean_queuing_delay()

    def test_standing_queue_matches_littles_law(self):
        # CBR at 2 Mb/s into a 1 Mb/s DropTail bottleneck with B=40: the
        # buffer stays full, so residence ~= 40 packets x 8 ms = 0.32 s.
        scenario = Scenario(
            discipline=Discipline.DROPTAIL, n_tcp=0, n_udp=1,
            buffer_pkts=40, t_min=10, t_max=39, duration_s=30.0, warmup_s=10.0,
            seed=1,
        )
        report = run_experiment(scenario)
        assert report.mean_queuing_delay_s == pytest.approx(0.32, rel=0.05)


class TestQueueTrace:
    def test_sample_count_and_idle_network(self):
        # 1 packet every 0.8 s through an otherwise empty queue.
        scenario = Scenario(
            discipline=Discipline.DROPTAIL, n_tcp=0, n_udp=1,
            udp_rate_bps=1e4, duration_s=10.0, warmup_s=1.0, seed=1,
        )
        report = run_experiment(scenario)
        assert len(report.queue_trace) == int(10.0 / scenario.sample_period_s) + 1
        assert all(p.q_c == 0 for p in report.queue_trace)

    def test_points_are_timestamped_in_order(self):
        scenario = Scenario(
            discipline=Discipline.CHOKED, n_tcp=3, n_udp=1,
            duration_s=5.0, warmup_s=1.0, seed=2,
        )
        report = run_experiment(scenario)
        times = [p.t for p in report.queue_trace]
        assert times == sorted(times)
        assert all(0 <= p.q_c <= scenario.buffer_pkts for p in report.queue_trace)
        assert all(p.q_a >= 0 for p in report.queue_trace)


@st.composite
def qdisc_params(draw):
    capacity = draw(st.integers(2, 600))
    t_max = draw(st.integers(2, capacity))
    t_min = draw(st.integers(1, t_max - 1))
    return QdiscParams(capacity=capacity, t_min=t_min, t_max=t_max, maxcomp=draw(st.integers(1, 8)))


class TestDrawBound:
    @given(qdisc_params())
    def test_choked_table_is_rear_plus_front_draws(self, params):
        collector = MetricsCollector(0.0, 1.0, Discipline.CHOKED, params)
        assert len(collector.draw_bounds) == params.capacity + 1
        for q_c, bound in enumerate(collector.draw_bounds):
            d_r, d_f = drawing_split(drawing_factor(q_c, params))
            assert bound == d_r + d_f

    @given(qdisc_params())
    def test_other_disciplines_have_flat_tables(self, params):
        flat = {
            Discipline.DROPTAIL: 0,
            Discipline.RED: 0,
            Discipline.CHOKE: 1,
            Discipline.GCHOKE: params.maxcomp,
        }
        for discipline, bound in flat.items():
            table = MetricsCollector(0.0, 1.0, discipline, params).draw_bounds
            assert table == [bound] * (params.capacity + 1)

    def test_draws_beyond_bound_counted_as_violation(self):
        params = QdiscParams()
        collector = MetricsCollector(0.0, 1.0, Discipline.CHOKED, params)
        collector.on_flow(1, "tcp")
        q_c = 60
        bound = sum(drawing_split(drawing_factor(q_c, params)))
        at_bound = EnqueueDecision(Outcome.ADMIT, draws_performed=bound)
        collector.on_arrival(0.5, Packet(1, 0), at_bound, q_c, 50.0)
        assert collector.draw_bound_violations == 0
        beyond = EnqueueDecision(Outcome.MATCH_DROP, (3,), bound + 1)
        collector.on_arrival(0.6, Packet(1, 1), beyond, q_c, 50.0)
        assert collector.draw_bound_violations == 1
        assert collector.outcome_counts == {"admit": 1, "match_drop": 1}
        assert collector.flow_stats[1].dropped == 2
        assert collector.draws_histogram == {bound: 1, bound + 1: 1}
