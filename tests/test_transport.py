import pytest

from aqmsim.engine import Rng
from aqmsim.qdisc import Packet
from aqmsim.transport import (
    AppKind,
    CbrSource,
    TcpPhase,
    TcpSink,
    TcpSource,
    TcpVariant,
    UdpSink,
)


class Harness:
    """Collects a source's outgoing packets, timer requests and wake-up times."""

    def __init__(self):
        self.sent: list[Packet] = []
        self.timers: list[tuple[float, int]] = []
        self.emits: list[float] = []

    def transmit(self, pk):
        self.sent.append(pk)

    def arm_timer(self, deadline, token):
        self.timers.append((deadline, token))

    def schedule_emit_at(self, t):
        self.emits.append(t)


def make_source(variant=TcpVariant.RENO, app=AppKind.FTP, seed=1, **kwargs):
    h = Harness()
    src = TcpSource(
        1,
        variant=variant,
        app_kind=app,
        transmit=h.transmit,
        arm_timer=h.arm_timer,
        schedule_emit_at=h.schedule_emit_at,
        rng=Rng(seed),
        **kwargs,
    )
    return src, h


def deliver_window(src, now):
    """ACK every outstanding packet in order; returns the new clock."""
    for seq in sorted(src.flight):
        now += 0.01
        src.on_ack(seq, now)
    return now


class TestSlowStart:
    def test_doubles_per_rtt(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        src.cwnd = 2.0
        src._pump(0.0)
        assert len(src.flight) == 2
        for seq in sorted(src.flight):
            src.on_ack(seq, 0.1)
        assert src.cwnd == pytest.approx(4.0)

    def test_threshold_crossing_enters_congestion_avoidance(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        src.ssthresh = 2.5
        src.cwnd = 2.0
        src._pump(0.0)
        src.on_ack(min(src.flight), 0.1)
        assert src.phase is TcpPhase.CONGESTION_AVOIDANCE
        assert src.cwnd >= src.ssthresh


class TestCongestionAvoidance:
    def test_reciprocal_growth(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        src.phase = TcpPhase.CONGESTION_AVOIDANCE
        src.cwnd = 10.0
        src.ssthresh = 5.0
        src._pump(0.0)
        src.on_ack(min(src.flight), 0.1)
        assert src.cwnd == pytest.approx(10.1)


class TestDupAcks:
    def prepare(self, cwnd):
        src, h = make_source()
        src.on_source_emit(0.0)
        src.phase = TcpPhase.CONGESTION_AVOIDANCE
        src.ssthresh = 8.0
        src.cwnd = float(cwnd)
        src._pump(0.0)
        # establish highest_acked = 0 so seq 1 is the missing packet
        src.on_ack(0, 0.05)
        src.cwnd = float(cwnd)  # undo the growth from the setup ACK
        h.sent.clear()
        return src, h

    def test_third_dup_halves_and_retransmits(self):
        src, h = self.prepare(16)
        for _ in range(3):
            src.on_dup_ack(0.1)
        assert src.ssthresh == pytest.approx(8.0)
        assert src.cwnd == pytest.approx(8.0)
        assert src.phase is TcpPhase.FAST_RECOVERY
        retx = [p for p in h.sent if p.is_retransmission]
        assert len(retx) == 1 and retx[0].seq == 1

    def test_first_two_dups_limited_transmit(self):
        src, h = self.prepare(16)
        cwnd_before = src.cwnd
        src.on_dup_ack(0.1)
        src.on_dup_ack(0.1)
        assert src.cwnd == cwnd_before
        assert src.dup_ack_count == 2
        assert all(not p.is_retransmission for p in h.sent)
        assert len(h.sent) == 2  # one new segment per early duplicate

    def test_halving_floors_at_two(self):
        src, h = self.prepare(3)
        for _ in range(3):
            src.on_dup_ack(0.1)
        assert src.ssthresh == pytest.approx(2.0)
        assert src.cwnd == pytest.approx(2.0)

    def test_recovery_exit_deflates(self):
        src, h = self.prepare(16)
        for _ in range(3):
            src.on_dup_ack(0.1)
        for _ in range(4):
            src.on_dup_ack(0.1)  # inflation
        assert src.cwnd > src.ssthresh
        src.on_ack(src.recover, 0.2)
        assert src.cwnd == pytest.approx(src.ssthresh)
        assert src.phase is TcpPhase.CONGESTION_AVOIDANCE


class TestTimeout:
    def test_timeout_resets_to_one_packet_slow_start(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        src.phase = TcpPhase.CONGESTION_AVOIDANCE
        src.cwnd = 20.0
        src._pump(0.0)
        token = h.timers[-1][1]
        src.on_timer(token, 1.0)
        assert src.ssthresh == pytest.approx(10.0)
        assert src.cwnd == 1.0
        assert src.phase is TcpPhase.SLOW_START
        assert h.sent[-1].is_retransmission

    def test_rto_doubles_per_consecutive_timeout(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        assert src.rto == 1.0
        src.on_timer(h.timers[-1][1], 1.0)
        assert src.rto == 2.0
        src.on_timer(h.timers[-1][1], 3.0)
        assert src.rto == 4.0

    def test_timeout_at_cwnd_one(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        src.on_timer(h.timers[-1][1], 1.0)
        assert src.ssthresh == pytest.approx(2.0)
        assert src.cwnd == 1.0

    def test_stale_token_ignored(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        old_token = h.timers[-1][1]
        src.on_ack(0, 0.1)  # restarts timer, invalidates old token
        cwnd = src.cwnd
        src.on_timer(old_token, 1.5)
        assert src.cwnd == cwnd
        assert src.phase is not TcpPhase.FAST_RECOVERY

    def test_sends_never_push_an_armed_deadline(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        deadline = h.timers[-1][0]
        src.cwnd = 4.0
        src._pump(0.5)  # more data while timer armed
        assert h.timers[-1][0] == deadline


class TestVegas:
    def test_uncongested_path_grows(self):
        src, h = make_source(variant=TcpVariant.VEGAS)
        src.base_rtt = 0.04
        src.cwnd = 10.0
        src.vegas_adjust(0.04)
        assert src.cwnd == pytest.approx(11.0)

    def test_congested_path_shrinks(self):
        src, h = make_source(variant=TcpVariant.VEGAS)
        src.base_rtt = 0.04
        src.cwnd = 20.0
        # diff = 20 * (1 - 0.04/0.06) = 6.67 > beta
        src.vegas_adjust(0.06)
        assert src.cwnd == pytest.approx(19.0)

    def test_dead_zone_unchanged(self):
        src, h = make_source(variant=TcpVariant.VEGAS)
        src.base_rtt = 0.04
        src.cwnd = 20.0
        # diff = 2 lies between alpha=1 and beta=3
        rtt = 0.04 / (1 - 2 / 20)
        src.vegas_adjust(rtt)
        assert src.cwnd == pytest.approx(20.0)

    def test_rejects_nonpositive_sample(self):
        src, h = make_source(variant=TcpVariant.VEGAS)
        with pytest.raises(ValueError):
            src.vegas_adjust(0.0)


class TestAckValidation:
    def test_ack_for_never_sent_seq_is_fatal(self):
        src, h = make_source()
        src.on_source_emit(0.0)
        with pytest.raises(RuntimeError):
            src.on_ack(500, 0.1)


class TestCbr:
    def test_interval_2mbps(self):
        sent = []
        emits = []
        src = CbrSource(
            1, rate_bps=2e6, packet_size_bits=8000,
            transmit=sent.append, schedule_emit_at=emits.append,
        )
        assert src.interval == pytest.approx(0.004)
        src.on_source_emit(0.0)
        assert emits[-1] == pytest.approx(0.004)
        src.on_source_emit(emits[-1])
        assert emits[-1] == pytest.approx(0.008)
        assert [p.seq for p in sent] == [0, 1]

    def test_interval_1mbps(self):
        src = CbrSource(
            1, rate_bps=1e6, packet_size_bits=8000,
            transmit=lambda pk: None, schedule_emit_at=lambda t: None,
        )
        assert src.interval == pytest.approx(0.008)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            CbrSource(1, rate_bps=0.0, transmit=lambda pk: None, schedule_emit_at=lambda t: None)


class TestSinks:
    def test_in_order_acks(self):
        sink = TcpSink()
        acks = [sink.on_packet(Packet(1, s)) for s in (0, 1, 2)]
        assert [a for a, _ in acks] == [0, 1, 2]

    def test_gap_produces_duplicate_acks(self):
        sink = TcpSink()
        acks = [sink.on_packet(Packet(1, s))[0] for s in (0, 2, 3)]
        assert acks == [0, 0, 0]
        # filling the hole acknowledges the buffered packets cumulatively
        assert sink.on_packet(Packet(1, 1))[0] == 3

    def test_ack_echoes_trigger_retransmission_flag(self):
        sink = TcpSink()
        assert sink.on_packet(Packet(1, 0))[1] is False
        assert sink.on_packet(Packet(1, 1, is_retransmission=True))[1] is True

    def test_udp_sink_stays_silent(self):
        sink = UdpSink()
        for s in range(250):
            assert sink.on_packet(Packet(1, s, size_bits=8000)) is None


class TestHttpApp:
    def test_alternates_pages_and_think_pauses(self):
        src, h = make_source(app=AppKind.HTTP, seed=5)
        src.on_source_emit(0.0)
        page = src._transfer_remaining + len(h.sent)
        assert page >= 1
        # serve the whole page; source must request a think pause
        now = 0.1
        while src.flight or src._has_data():
            src.cwnd = 64.0
            src._pump(now)
            now = deliver_window(src, now)
        assert src._thinking
        assert len(h.sent) == page
        assert all(not p.is_retransmission for p in h.sent)
        # the pause starts at the last ACK, which arrived at `now`
        assert len(h.emits) == 1 and h.emits[0] > now
        # wake-up starts the next page with a fresh one-packet window
        src.on_source_emit(h.emits[0])
        assert src.cwnd == 1.0
        assert src.phase is TcpPhase.SLOW_START
        assert len(h.sent) == page + 1

    def test_ftp_never_idles(self):
        src, h = make_source(app=AppKind.FTP)
        src.on_source_emit(0.0)
        now = 0.1
        for _ in range(50):
            now = deliver_window(src, now)
        assert not src._thinking
        assert h.emits == []
        assert src._has_data()
