"""Traffic sources and sinks.

Simplified packet-level TCP (Reno and Vegas) driven by a persistent FTP
application or a short-lived HTTP-like page model, constant-bit-rate UDP
sources with no feedback path, and receivers that emit one cumulative ACK
per data packet (TCP) or nothing (UDP).

The TCP model covers slow start, congestion avoidance, fast retransmit on
the third duplicate ACK, and timeout recovery back to a one-packet window;
it deliberately omits SACK, window scaling and delayed ACKs.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .engine import Rng
from .qdisc import Packet

INITIAL_CWND = 1.0
INITIAL_SSTHRESH = 64.0
MAX_CWND = 64.0  # receiver advertised window, packets
INITIAL_RTO = 1.0
MIN_RTO = 1.0
MAX_RTO = 60.0
SRTT_GAIN = 0.125
RTTVAR_GAIN = 0.25
VEGAS_ALPHA = 1.0
VEGAS_BETA = 3.0
ACK_SIZE_BITS = 320


class TcpVariant(Enum):
    RENO = "reno"
    VEGAS = "vegas"


class TcpPhase(Enum):
    SLOW_START = "slow_start"
    CONGESTION_AVOIDANCE = "congestion_avoidance"
    FAST_RECOVERY = "fast_recovery"


class AppKind(Enum):
    FTP = "ftp"
    HTTP = "http"


class TcpSource:
    """One TCP sender; congestion state plus the app driving it.

    Network access is injected: `transmit(pk)` hands a packet to the access
    link, `arm_timer(deadline, token)` schedules an RTO check, and
    `schedule_emit(delay)` wakes the source up again after an HTTP think
    pause. Stale timers are ignored by token comparison.
    """

    def __init__(
        self,
        flow_id: int,
        *,
        variant: TcpVariant = TcpVariant.RENO,
        app_kind: AppKind = AppKind.FTP,
        packet_size_bits: int = 8000,
        transmit: Callable[[Packet], None],
        arm_timer: Callable[[float, int], None],
        schedule_emit: Callable[[float], None],
        rng: Rng,
        http_page_mean_pkts: float = 12.0,
        http_think_mean_s: float = 1.0,
    ) -> None:
        self.flow_id = flow_id
        self.variant = variant
        self.app_kind = app_kind
        self.packet_size_bits = packet_size_bits
        self._transmit = transmit
        self._arm_timer = arm_timer
        self._schedule_emit = schedule_emit
        self._rng = rng
        self.http_page_mean_pkts = http_page_mean_pkts
        self.http_think_mean_s = http_think_mean_s

        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.phase = TcpPhase.SLOW_START
        self.flight: dict[int, tuple[float, bool]] = {}  # seq -> (send_time, retransmitted)
        self.next_seq = 0
        self.highest_acked = -1
        self.dup_ack_count = 0
        self.recover = -1  # highest seq sent when the last loss was detected
        self.srtt = 0.0
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self.base_rtt = float("inf")
        self._timer_token = 0
        self._timer_armed = False
        self._vegas_epoch_seq = 0
        self._transfer_remaining: int | None = None  # None = backlogged (FTP)
        self._thinking = False
        self.started = False

    # -- application ------------------------------------------------------

    def _has_data(self) -> bool:
        if self._transfer_remaining is None:
            return True
        return self._transfer_remaining > 0

    def on_source_emit(self, now: float) -> None:
        """Start of the flow, or end of an HTTP think pause."""
        if not self.started:
            self.started = True
            if self.app_kind is AppKind.HTTP:
                self._transfer_remaining = self._rng.geometric(self.http_page_mean_pkts)
            self._pump(now)
            return
        if self._thinking:
            self._thinking = False
            self.cwnd = INITIAL_CWND
            self.phase = TcpPhase.SLOW_START
            self.dup_ack_count = 0
            self._transfer_remaining = self._rng.geometric(self.http_page_mean_pkts)
            self._pump(now)

    def _maybe_finish_transfer(self, now: float) -> None:
        if (
            self._transfer_remaining == 0
            and not self.flight
            and not self._thinking
        ):
            self._thinking = True
            self._stop_timer()
            self._schedule_emit(self._rng.exponential(self.http_think_mean_s))

    # -- sending ----------------------------------------------------------

    def _send(self, seq: int, now: float, retransmission: bool) -> None:
        self.flight[seq] = (now, retransmission)
        self._transmit(
            Packet(self.flow_id, seq, self.packet_size_bits, is_retransmission=retransmission)
        )

    def _pump(self, now: float) -> None:
        sent = False
        while len(self.flight) < int(min(self.cwnd, MAX_CWND)) and self._has_data():
            seq = self.next_seq
            self.next_seq += 1
            if self._transfer_remaining is not None:
                self._transfer_remaining -= 1
            self._send(seq, now, retransmission=False)
            sent = True
        if sent:
            self._ensure_timer(now)

    def _ensure_timer(self, now: float) -> None:
        """Start the retransmission timer only if it is not already running;
        sends must never push an armed deadline further out."""
        if not self._timer_armed:
            self._restart_timer(now)

    def _restart_timer(self, now: float) -> None:
        self._timer_token += 1
        self._timer_armed = True
        self._arm_timer(now + self.rto, self._timer_token)

    def _stop_timer(self) -> None:
        self._timer_token += 1
        self._timer_armed = False

    # -- RTT estimation ---------------------------------------------------

    def _estimator_rto(self) -> float:
        if self.srtt == 0.0:
            return INITIAL_RTO
        return min(max(self.srtt + 4 * self.rttvar, MIN_RTO), MAX_RTO)

    def _observe_rtt(self, sample: float) -> None:
        if self.srtt == 0.0:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = (1 - RTTVAR_GAIN) * self.rttvar + RTTVAR_GAIN * abs(self.srtt - sample)
            self.srtt = (1 - SRTT_GAIN) * self.srtt + SRTT_GAIN * sample
        self.rto = self._estimator_rto()
        if sample < self.base_rtt:
            self.base_rtt = sample

    # -- ACK handling -----------------------------------------------------

    def on_ack(self, ack_seq: int, now: float, trigger_was_retx: bool = True) -> None:
        if ack_seq >= self.next_seq:
            raise RuntimeError(
                f"flow {self.flow_id}: ACK for never-sent seq {ack_seq} "
                f"(next_seq={self.next_seq})"
            )
        if ack_seq > self.highest_acked:
            self._on_new_ack(ack_seq, now, trigger_was_retx)
        else:
            self.on_dup_ack(now)

    def _on_new_ack(self, ack_seq: int, now: float, trigger_was_retx: bool = True) -> None:
        rtt_sample = None
        entry = self.flight.get(ack_seq)
        if entry is not None and not entry[1]:  # Karn: skip retransmitted seqs
            rtt_sample = now - entry[0]
        for seq in [s for s in self.flight if s <= ack_seq]:
            del self.flight[seq]
        self.highest_acked = ack_seq
        self.dup_ack_count = 0
        if rtt_sample is not None:
            self._observe_rtt(rtt_sample)
        else:
            # Forward progress un-backs-off the timer even when the sample
            # is discarded (retransmitted segment).
            self.rto = self._estimator_rto()

        if self.phase is TcpPhase.FAST_RECOVERY:
            if ack_seq >= self.recover:
                self.cwnd = self.ssthresh  # deflate any dup-ACK inflation
                self.phase = TcpPhase.CONGESTION_AVOIDANCE
        elif self.phase is TcpPhase.SLOW_START:
            self.cwnd += 1.0
            if self.cwnd >= self.ssthresh:
                self.phase = TcpPhase.CONGESTION_AVOIDANCE
        else:
            self.cwnd += 1.0 / self.cwnd
            if (
                self.variant is TcpVariant.VEGAS
                and rtt_sample is not None
                and ack_seq >= self._vegas_epoch_seq
            ):
                self.vegas_adjust(rtt_sample)
                self._vegas_epoch_seq = self.next_seq

        # Several packets of one window can be match-dropped together; a
        # partial ACK below the recovery point exposes the next hole, which
        # will never generate duplicate ACKs of its own. Retransmit it now
        # instead of waiting out a full RTO per hole -- but only when this
        # ACK was triggered by a retransmitted segment. A partial ACK from a
        # delayed original means the timeout was spurious and later segments
        # are probably still queued, not lost.
        next_hole = ack_seq + 1
        if ack_seq < self.recover and trigger_was_retx and next_hole in self.flight:
            self._send(next_hole, now, retransmission=True)

        if self.flight:
            self._restart_timer(now)
        else:
            self._stop_timer()
        self._pump(now)
        self._maybe_finish_transfer(now)

    def on_dup_ack(self, now: float) -> None:
        if not self.flight:
            return
        if self.phase is TcpPhase.FAST_RECOVERY:
            # Each further duplicate signals another delivery; inflate so the
            # ACK clock keeps new data flowing while the hole is repaired.
            self.cwnd += 1.0
            self._pump(now)
            return
        self.dup_ack_count += 1
        if self.dup_ack_count < 3:
            # Limited transmit: one new segment per early duplicate keeps the
            # ACK clock alive at small windows, where a single loss would
            # otherwise only be repaired by a full RTO stall.
            if self._has_data():
                seq = self.next_seq
                self.next_seq += 1
                if self._transfer_remaining is not None:
                    self._transfer_remaining -= 1
                self._send(seq, now, retransmission=False)
                self._ensure_timer(now)
            return
        if self.dup_ack_count == 3:
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh
            self.phase = TcpPhase.FAST_RECOVERY
            self.recover = self.next_seq - 1
            missing = self.highest_acked + 1
            if missing in self.flight:
                self._send(missing, now, retransmission=True)
                self._restart_timer(now)

    def vegas_adjust(self, rtt_sample: float) -> None:
        """Once-per-RTT window nudge from the expected-vs-actual rate gap."""
        if rtt_sample <= 0:
            raise ValueError(f"rtt_sample must be positive, got {rtt_sample}")
        diff = self.cwnd * (1.0 / self.base_rtt - 1.0 / rtt_sample) * self.base_rtt
        if diff < VEGAS_ALPHA:
            self.cwnd += 1.0
        elif diff > VEGAS_BETA:
            self.cwnd = max(self.cwnd - 1.0, 1.0)

    # -- timeout ----------------------------------------------------------

    def on_timer(self, token: int, now: float) -> None:
        if token != self._timer_token:
            return
        self._timer_armed = False
        if not self.flight:
            return
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.phase = TcpPhase.SLOW_START
        self.dup_ack_count = 0
        self.recover = self.next_seq - 1
        self.rto = min(self.rto * 2.0, MAX_RTO)
        self._send(min(self.flight), now, retransmission=True)
        self._restart_timer(now)


class CbrSource:
    """Constant-bit-rate source over UDP; emission never reacts to loss."""

    def __init__(
        self,
        flow_id: int,
        *,
        rate_bps: float,
        packet_size_bits: int = 8000,
        transmit: Callable[[Packet], None],
        schedule_emit_at: Callable[[float], None],
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        self.flow_id = flow_id
        self.packet_size_bits = packet_size_bits
        self.interval = packet_size_bits / rate_bps
        self.next_seq = 0
        self._transmit = transmit
        self._schedule_emit_at = schedule_emit_at

    def on_source_emit(self, now: float) -> None:
        self._transmit(Packet(self.flow_id, self.next_seq, self.packet_size_bits))
        self.next_seq += 1
        self._schedule_emit_at(now + self.interval)


class TcpSink:
    """Cumulative-ACK receiver: one ACK per data packet, carrying the
    highest in-order sequence received so far plus the retransmission flag
    of the packet that triggered it."""

    def __init__(self, flow_id: int) -> None:
        self.flow_id = flow_id
        self.expected = 0
        self._out_of_order: set[int] = set()

    def on_packet(self, pk: Packet) -> tuple[int, bool]:
        if pk.seq == self.expected:
            self.expected += 1
            while self.expected in self._out_of_order:
                self._out_of_order.discard(self.expected)
                self.expected += 1
        elif pk.seq > self.expected:
            self._out_of_order.add(pk.seq)
        return self.expected - 1, pk.is_retransmission


class UdpSink:
    """Absorbs delivered packets; emits nothing."""

    def __init__(self, flow_id: int) -> None:
        self.flow_id = flow_id

    def on_packet(self, pk: Packet) -> None:
        return None
