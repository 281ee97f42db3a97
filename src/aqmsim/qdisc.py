"""Bottleneck queue disciplines: DropTail, RED, CHOKe, gCHOKe, CHOKeD.

The CHOKe family compares the arriving packet's flow id against packets
drawn at random from the buffer and drops every match together with the
arrival. CHOKeD sizes its draw from the current occupancy and the buffer
capacity, and samples the rear (newest) half of the queue before the front
half, so heavy unresponsive flows are hit where their packets concentrate.

All disciplines share the arrival-driven EWMA queue average as congestion
indicator and fall back to RED's linear drop probability when no match is
found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .engine import Rng


class Discipline(Enum):
    DROPTAIL = "droptail"
    RED = "red"
    CHOKE = "choke"
    GCHOKE = "gchoke"
    CHOKED = "choked"


class Outcome(Enum):
    ADMIT = "admit"
    DROP_ARRIVING = "drop_arriving"
    MATCH_DROP = "match_drop"


@dataclass(slots=True)
class Packet:
    """Unit of simulated traffic. (flow_id, seq, is_retransmission)
    identifies the payload for goodput accounting."""

    flow_id: int
    seq: int
    size_bits: int = 8000
    enqueue_time: float = -1.0
    is_retransmission: bool = False


@dataclass(slots=True)
class QdiscParams:
    """Discipline parameters; `Scenario.validate` judges their values."""

    capacity: int = 100          # B, packets
    t_min: int = 40              # packets
    t_max: int = 80              # packets
    w_q: float = 0.02
    max_p: float = 0.1
    maxcomp: int = 3             # gCHOKe only


@dataclass(slots=True)
class QdiscState:
    """FIFO buffer (head = oldest at index 0) plus the EWMA average.

    `decide` is the discipline's admission function, resolved once here so
    that no arrival looks the discipline up again. CHOKeD also gets its
    (D_r, D_f) split for every occupancy here; other disciplines hold an
    empty `draw_split`.
    """

    params: QdiscParams
    discipline: Discipline
    buffer: list[Packet] = field(default_factory=list)
    q_a: float = 0.0
    decide: Callable[[QdiscState, Packet, Rng], EnqueueDecision] = field(
        init=False, repr=False, compare=False
    )
    draw_split: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.decide = _ENQUEUE[self.discipline]
        self.draw_split = choked_draw_table(self.params) if self.discipline is Discipline.CHOKED else []


@dataclass(slots=True)
class EnqueueDecision:
    outcome: Outcome
    dropped_positions: tuple[int, ...] = ()
    draws_performed: int = 0


def _round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero (2.5 -> 3)."""
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def update_avg_queue(q_a: float, q_c: int, w_q: float) -> float:
    """One EWMA step of the average queue size."""
    return (1.0 - w_q) * q_a + w_q * q_c


def red_drop_probability(q_a: float, params: QdiscParams) -> float:
    """Linear early-drop probability: 0 below t_min, 1 at or above t_max."""
    if q_a < params.t_min:
        return 0.0
    if q_a >= params.t_max:
        return 1.0
    return params.max_p * (q_a - params.t_min) / (params.t_max - params.t_min)


def drawing_factor(q_c: int, params: QdiscParams) -> int:
    """Number of drop candidates to draw for the current occupancy.

    Grows linearly with occupancy and scales with the buffer capacity, so
    the punishment adapts to routers of different sizes.
    """
    if q_c <= 0:
        return 0
    span = params.t_max - params.t_min
    return _round_half_away(q_c * math.sqrt(params.capacity) / (span * math.log(params.capacity)))


def drawing_split(d_i: int) -> tuple[int, int]:
    """Split the drawing factor into (rear, front) draw counts."""
    return d_i, _round_half_away(d_i / 2)


def choked_draw_table(params: QdiscParams) -> list[tuple[int, int]]:
    """CHOKeD's (rear, front) draw counts for each occupancy q_c = 0..B."""
    return [drawing_split(drawing_factor(q_c, params)) for q_c in range(params.capacity + 1)]


def partition_regions(q_c: int) -> tuple[range, range]:
    """(front, rear) index ranges; head = oldest = index 0.

    The rear (newest) region gets the extra slot on odd occupancy, since
    fresh arrivals of heavy flows accumulate there.
    """
    mid = q_c // 2
    return range(0, mid), range(mid, q_c)


def enqueue_droptail(state: QdiscState, pk: Packet) -> EnqueueDecision:
    if len(state.buffer) >= state.params.capacity:
        return EnqueueDecision(Outcome.DROP_ARRIVING)
    state.buffer.append(pk)
    return EnqueueDecision(Outcome.ADMIT)


def _red_fallback(state: QdiscState, pk: Packet, rng: Rng, draws: int) -> EnqueueDecision:
    # Congestion-level drop applied when no match decided the arrival.
    if rng.random() < red_drop_probability(state.q_a, state.params):
        return EnqueueDecision(Outcome.DROP_ARRIVING, draws_performed=draws)
    state.buffer.append(pk)
    return EnqueueDecision(Outcome.ADMIT, draws_performed=draws)


def enqueue_red(state: QdiscState, pk: Packet, rng: Rng) -> EnqueueDecision:
    params = state.params
    if len(state.buffer) >= params.capacity or state.q_a >= params.t_max:
        return EnqueueDecision(Outcome.DROP_ARRIVING)
    if state.q_a < params.t_min:
        state.buffer.append(pk)
        return EnqueueDecision(Outcome.ADMIT)
    return _red_fallback(state, pk, rng, 0)


def enqueue_choke(state: QdiscState, pk: Packet, rng: Rng) -> EnqueueDecision:
    """One uniform draw from the whole buffer; a match removes both packets.

    The draw-and-compare happens for every arrival once the average is past
    t_min, including when the average is beyond t_max or the buffer is full:
    the arriving packet cannot be admitted there, but a matched queued
    packet is still removed. Only the no-match path falls through to the
    all-drop / probabilistic region.
    """
    params = state.params
    buf = state.buffer
    if state.q_a < params.t_min:
        if len(buf) >= params.capacity:
            return EnqueueDecision(Outcome.DROP_ARRIVING)
        buf.append(pk)
        return EnqueueDecision(Outcome.ADMIT)
    draws = 0
    if buf:
        draws = 1
        pos = rng.index(len(buf))
        if buf[pos].flow_id == pk.flow_id:
            del buf[pos]
            return EnqueueDecision(Outcome.MATCH_DROP, (pos,), 1)
    if len(buf) >= params.capacity or state.q_a >= params.t_max:
        return EnqueueDecision(Outcome.DROP_ARRIVING, draws_performed=draws)
    return _red_fallback(state, pk, rng, draws)


def enqueue_gchoke(state: QdiscState, pk: Packet, rng: Rng) -> EnqueueDecision:
    """CHOKe with repeated draws: keep drawing from the not-yet-matched
    packets while matches occur, stopping at the first mismatch or after
    maxcomp draws. All matched packets plus the arrival are dropped."""
    params = state.params
    buf = state.buffer
    if state.q_a < params.t_min:
        if len(buf) >= params.capacity:
            return EnqueueDecision(Outcome.DROP_ARRIVING)
        buf.append(pk)
        return EnqueueDecision(Outcome.ADMIT)
    n = len(buf)
    matched: list[int] = []
    draws = 0
    while draws < params.maxcomp and draws < n:
        # Every earlier draw matched, so `matched` holds all drawn
        # positions: step the j-th undrawn position over them.
        pos = rng.index(n - draws)
        for taken in sorted(matched):
            if taken <= pos:
                pos += 1
        draws += 1
        if buf[pos].flow_id == pk.flow_id:
            matched.append(pos)
        else:
            break
    if matched:
        for pos in sorted(matched, reverse=True):
            del buf[pos]
        return EnqueueDecision(Outcome.MATCH_DROP, tuple(sorted(matched)), draws)
    if len(buf) >= params.capacity or state.q_a >= params.t_max:
        return EnqueueDecision(Outcome.DROP_ARRIVING, draws_performed=draws)
    return _red_fallback(state, pk, rng, draws)


def enqueue_choked(state: QdiscState, pk: Packet, rng: Rng) -> EnqueueDecision:
    params = state.params
    buf = state.buffer
    if len(buf) >= params.capacity or state.q_a >= params.t_max:
        return EnqueueDecision(Outcome.DROP_ARRIVING)
    if state.q_a < params.t_min:
        buf.append(pk)
        return EnqueueDecision(Outcome.ADMIT)
    q_c = len(buf)
    d_r, d_f = state.draw_split[q_c]
    if d_r == 0:
        return _red_fallback(state, pk, rng, 0)
    front, rear = partition_regions(q_c)
    flow_id = pk.flow_id

    draws = min(d_r, len(rear))
    positions = rng.sample(rear, draws) if draws else []
    matched = [pos for pos in positions if buf[pos].flow_id == flow_id]
    if not matched:
        # Rear missed: draw from the front region before admitting.
        front_draws = min(d_f, len(front))
        if front_draws:
            positions = rng.sample(front, front_draws)
            matched = [pos for pos in positions if buf[pos].flow_id == flow_id]
            draws += front_draws
    assert draws <= d_r + d_f
    if matched:
        for pos in sorted(matched, reverse=True):
            del buf[pos]
        return EnqueueDecision(Outcome.MATCH_DROP, tuple(sorted(matched)), draws)
    return _red_fallback(state, pk, rng, draws)


_ENQUEUE = {
    Discipline.DROPTAIL: lambda state, pk, rng: enqueue_droptail(state, pk),
    Discipline.RED: enqueue_red,
    Discipline.CHOKE: enqueue_choke,
    Discipline.GCHOKE: enqueue_gchoke,
    Discipline.CHOKED: enqueue_choked,
}


def enqueue(state: QdiscState, pk: Packet, rng: Rng, now: float) -> EnqueueDecision:
    """Admission entry point: EWMA update, then the discipline's decision.

    The average is updated exactly once per arrival, before the decision,
    using the pre-admission occupancy; it is never updated on dequeue.
    """
    state.q_a = update_avg_queue(state.q_a, len(state.buffer), state.params.w_q)
    pk.enqueue_time = now
    decision = state.decide(state, pk, rng)
    assert len(state.buffer) <= state.params.capacity
    return decision


def dequeue(state: QdiscState) -> Packet | None:
    """Remove and return the head (oldest) packet, or None when empty."""
    if not state.buffer:
        return None
    return state.buffer.pop(0)
