"""Reported quantities: throughput, goodput, Jain fairness, queue residence.

Rates and fairness are computed over the measurement window
[warmup, duration]; queue-residence samples are windowed by their service
time. Dropped packets never contribute a delay sample, since only
transmitted packets have a service start.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .qdisc import (
    Discipline,
    EnqueueDecision,
    Outcome,
    Packet,
    QdiscParams,
    drawing_factor,
    drawing_split,
)


@dataclass(slots=True)
class FlowStats:
    """Delivered-bit totals for one flow over a measurement window."""

    flow_id: int
    bits_delivered: int = 0
    bits_retransmitted_delivered: int = 0
    start: float = 0.0
    end: float = 0.0


class DelaySample(NamedTuple):
    enqueue_time: float
    service_start: float


class QueueTracePoint(NamedTuple):
    t: float
    q_c: int
    q_a: float


def throughput(stats: FlowStats, window: tuple[float, float]) -> float:
    """Delivered bits per second over the window the stats were taken in."""
    t0, t1 = window
    if t1 <= t0:
        raise ValueError(f"empty measurement window ({t0}, {t1})")
    return stats.bits_delivered / (t1 - t0)


def goodput_tcp(stats: FlowStats) -> float:
    """Delivered bits net of delivered retransmissions, per second."""
    duration = stats.end - stats.start
    if duration <= 0:
        raise ValueError(f"flow {stats.flow_id}: non-positive duration {duration}")
    return (stats.bits_delivered - stats.bits_retransmitted_delivered) / duration

def goodput_udp(stats: FlowStats) -> float:
    duration = stats.end - stats.start
    if duration <= 0:
        raise ValueError(f"flow {stats.flow_id}: non-positive duration {duration}")
    return stats.bits_delivered / duration


def jain_index(shares: list[float]) -> float:
    """(sum x)^2 / (n sum x^2); 1 = equal shares, 1/n = one flow takes all."""
    if not shares:
        raise ValueError("fairness needs at least one share")
    total = sum(shares)
    squares = sum(x * x for x in shares)
    if squares == 0:
        raise ValueError("fairness undefined for an all-zero share vector")
    return (total * total) / (len(shares) * squares)


def queuing_delay(samples: list[DelaySample]) -> float:
    """Mean queue residence time of transmitted packets."""
    if not samples:
        raise ValueError("no delay samples")
    return sum(s.service_start - s.enqueue_time for s in samples) / len(samples)


def draw_bound_table(discipline: Discipline | None, params: QdiscParams | None) -> list[int]:
    """Most draws a discipline may make on an arrival, per occupancy
    q_c = 0..capacity, from the draw rule of each discipline. Empty until
    the qdisc parameters are known."""
    if params is None:
        return []
    n = params.capacity + 1
    if discipline is Discipline.CHOKE:
        return [1] * n
    if discipline is Discipline.GCHOKE:
        return [params.maxcomp] * n
    if discipline is Discipline.CHOKED:
        return [sum(drawing_split(drawing_factor(q_c, params))) for q_c in range(n)]
    return [0] * n


class MetricsCollector:
    """In-process observer fed synchronously by the event loop.

    Tracks full-run packet conservation counts, windowed per-flow bits,
    per-second delivery bins, queue residence samples, the periodic queue
    trace, and per-outcome decision counts with a draws histogram.
    """

    def __init__(
        self,
        warmup: float,
        duration: float,
        discipline: Discipline | None = None,
        params: QdiscParams | None = None,
    ) -> None:
        self.warmup = warmup
        self.duration = duration
        self.discipline = discipline
        self.params = params
        self.emitted: Counter[int] = Counter()
        self.delivered: Counter[int] = Counter()
        self.dropped: Counter[int] = Counter()
        self.flow_stats: dict[int, FlowStats] = {}
        self.bins: dict[int, Counter[int]] = {}
        self.delay_samples: list[DelaySample] = []
        self.queue_trace: list[QueueTracePoint] = []
        self.admitted = 0
        self.arrivals_dropped = 0
        self.match_drops = 0
        self.draws_histogram: Counter[int] = Counter()
        self.draw_bound_violations = 0

    @property
    def params(self) -> QdiscParams | None:
        return self._params

    @params.setter
    def params(self, params: QdiscParams | None) -> None:
        # The draw bound is tabulated once per run, not recomputed per arrival.
        self._params = params
        self.draw_bounds = draw_bound_table(self.discipline, params)

    @property
    def outcome_counts(self) -> Counter[Outcome]:
        """Decisions per outcome; outcomes that never occurred are absent."""
        return +Counter(
            {
                Outcome.ADMIT: self.admitted,
                Outcome.DROP_ARRIVING: self.arrivals_dropped,
                Outcome.MATCH_DROP: self.match_drops,
            }
        )

    def register_flow(self, flow_id: int) -> FlowStats:
        stats = self.flow_stats.get(flow_id)
        if stats is None:
            stats = FlowStats(flow_id, start=self.warmup, end=self.duration)
            self.flow_stats[flow_id] = stats
            self.bins[flow_id] = Counter()
        return stats

    def on_emit(self, pk: Packet) -> None:
        self.emitted[pk.flow_id] += 1

    def on_arrival(
        self,
        now: float,
        pk: Packet,
        decision: EnqueueDecision,
        q_c: int,
        q_a: float,
    ) -> None:
        # Outcomes are told apart by identity: hashing an Enum member runs
        # Python code, and this runs once per arrival.
        outcome = decision.outcome
        draws = decision.draws_performed
        self.draws_histogram[draws] += 1
        if outcome is Outcome.ADMIT:
            self.admitted += 1
        else:
            self.dropped[pk.flow_id] += 1 + len(decision.dropped_positions)
            if outcome is Outcome.MATCH_DROP:
                self.match_drops += 1
            else:
                self.arrivals_dropped += 1
        if draws > self.draw_bounds[q_c]:
            self.draw_bound_violations += 1

    def on_service_start(self, pk: Packet, now: float) -> None:
        if now >= self.warmup:
            self.delay_samples.append(DelaySample(pk.enqueue_time, now))

    def on_delivery(self, pk: Packet, now: float) -> None:
        self.delivered[pk.flow_id] += 1
        stats = self.register_flow(pk.flow_id)
        self.bins[pk.flow_id][int(now)] += pk.size_bits
        if self.warmup <= now <= self.duration:
            stats.bits_delivered += pk.size_bits
            if pk.is_retransmission:
                stats.bits_retransmitted_delivered += pk.size_bits

    def sample_queue(self, now: float, q_c: int, q_a: float) -> None:
        self.queue_trace.append(QueueTracePoint(now, q_c, q_a))

    def mean_queuing_delay(self) -> float:
        return queuing_delay(self.delay_samples)
