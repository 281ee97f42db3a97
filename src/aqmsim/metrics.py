"""Reported quantities: throughput, goodput, Jain fairness, queue residence.

Rates and fairness are computed over the measurement window
[warmup, duration]; queue residence is a running mean over service
starts in that window. Dropped packets never contribute to it, since only
transmitted packets have a service start.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .qdisc import (
    Discipline,
    EnqueueDecision,
    Outcome,
    Packet,
    QdiscParams,
    choked_draw_table,
)


@dataclass(slots=True)
class FlowStats:
    """One flow's record: full-run packet conservation counts, delivered
    bits per one-second bin, and delivered-bit totals over the measurement
    window. The harness sets `residual` after the run: the flow's packets
    then still in the network."""

    flow_id: int
    kind: str  # "tcp" | "udp"
    bits_delivered: int = 0
    bits_retransmitted_delivered: int = 0
    emitted: int = 0
    delivered: int = 0
    dropped: int = 0
    bins: Counter[int] = field(default_factory=Counter)
    residual: int = 0


class QueueTracePoint(NamedTuple):
    t: float
    q_c: int
    q_a: float


def _window_s(window: tuple[float, float]) -> float:
    t0, t1 = window
    if t1 <= t0:
        raise ValueError(f"empty measurement window ({t0}, {t1})")
    return t1 - t0


def throughput(stats: FlowStats, window: tuple[float, float]) -> float:
    """Delivered bits per second over the window the stats were taken in."""
    return stats.bits_delivered / _window_s(window)


def goodput(stats: FlowStats, window: tuple[float, float]) -> float:
    """Delivered bits net of delivered retransmissions, per second. A UDP
    flow never retransmits, so its goodput is its throughput."""
    return (stats.bits_delivered - stats.bits_retransmitted_delivered) / _window_s(window)


def jain_index(shares: list[float]) -> float:
    """(sum x)^2 / (n sum x^2); 1 = equal shares, 1/n = one flow takes all."""
    if not shares:
        raise ValueError("fairness needs at least one share")
    # Left to right, as on Python 3.11: from 3.12 `sum()` of floats is
    # compensated and can change the last digit of the index.
    total = squares = 0
    for x in shares:
        total += x
        squares += x * x
    if squares == 0:
        raise ValueError("fairness undefined for an all-zero share vector")
    return (total * total) / (len(shares) * squares)


def draw_bound_table(discipline: Discipline | None, params: QdiscParams | None) -> list[int]:
    """Most draws a discipline may make on an arrival, per occupancy
    q_c = 0..capacity, from the draw rule of each discipline. Empty when
    the qdisc parameters are not given."""
    if params is None:
        return []
    n = params.capacity + 1
    if discipline is Discipline.CHOKE:
        return [1] * n
    if discipline is Discipline.GCHOKE:
        return [params.maxcomp] * n
    if discipline is Discipline.CHOKED:
        return [d_r + d_f for d_r, d_f in choked_draw_table(params)]
    return [0] * n


class MetricsCollector:
    """In-process observer fed synchronously by the event loop.

    Keeps one FlowStats record per flow announced by `on_flow`, queue
    residence, the periodic queue trace and per-outcome decision counts
    with a draws histogram. Given the qdisc `params`, it also counts
    arrivals whose draws exceed the discipline's draw bound; without them
    there is no bound, and that check is skipped.
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
        # The draw bound is tabulated once per run, not recomputed per arrival.
        self.draw_bounds = draw_bound_table(discipline, params)
        self.flow_stats: dict[int, FlowStats] = {}
        self.delay_sum = 0.0
        self.delay_count = 0
        self.queue_trace: list[QueueTracePoint] = []
        self.admitted = 0
        self.arrivals_dropped = 0
        self.match_drops = 0
        self.draws_histogram: Counter[int] = Counter()
        self.draw_bound_violations = 0

    @property
    def outcome_counts(self) -> dict[str, int]:
        """Decisions per outcome value, in the order admit, drop_arriving,
        match_drop; outcomes that never occurred are absent."""
        counts = {"admit": self.admitted, "drop_arriving": self.arrivals_dropped, "match_drop": self.match_drops}
        return {outcome: n for outcome, n in counts.items() if n}

    def on_flow(self, flow_id: int, kind: str) -> None:
        self.flow_stats[flow_id] = FlowStats(flow_id, kind)

    def on_emit(self, pk: Packet) -> None:
        self.flow_stats[pk.flow_id].emitted += 1

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
            self.flow_stats[pk.flow_id].dropped += 1 + len(decision.dropped_positions)
            if outcome is Outcome.MATCH_DROP:
                self.match_drops += 1
            else:
                self.arrivals_dropped += 1
        if self.draw_bounds and draws > self.draw_bounds[q_c]:
            self.draw_bound_violations += 1

    def on_service_start(self, pk: Packet, now: float) -> None:
        if now >= self.warmup:
            self.delay_sum += now - pk.enqueue_time
            self.delay_count += 1

    def on_delivery(self, pk: Packet, now: float) -> None:
        stats = self.flow_stats[pk.flow_id]
        stats.delivered += 1
        stats.bins[int(now)] += pk.size_bits
        if self.warmup <= now <= self.duration:
            stats.bits_delivered += pk.size_bits
            if pk.is_retransmission:
                stats.bits_retransmitted_delivered += pk.size_bits

    def sample_queue(self, now: float, q_c: int, q_a: float) -> None:
        self.queue_trace.append(QueueTracePoint(now, q_c, q_a))

    def mean_queuing_delay(self) -> float:
        """Mean queue residence time of packets serviced after warm-up."""
        if not self.delay_count:
            raise ValueError("no delay samples")
        return self.delay_sum / self.delay_count
