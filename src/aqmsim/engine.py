"""Deterministic discrete-event core.

One event loop and one seeded random source per simulation run. Events are
dispatched in strict (fire_time, sequence) order, where the sequence number
is assigned at scheduling time, so two runs with the same seed and the same
scenario produce identical behavior.
"""

from __future__ import annotations

import heapq
import math
import random
from enum import IntEnum
from typing import Any, Callable, NamedTuple


class EventKind(IntEnum):
    PACKET_ARRIVAL_AT_QUEUE = 1
    TRANSMISSION_COMPLETE = 2
    PROPAGATION_DELIVERY = 3
    ACK_DELIVERY = 4
    TIMER_EXPIRY = 5
    SOURCE_EMIT = 6


class Event(NamedTuple):
    """Pending event as `pending_events` reports it."""

    fire_time: float
    sequence: int
    kind: EventKind
    payload: Any


class SchedulingError(Exception):
    """An event was scheduled into the past, or run_until went backwards."""


class EventLoop:
    """Simulation clock plus a priority queue of pending events.

    Ties in fire_time are broken by insertion sequence, so dispatch order is
    a strict total order regardless of float coincidences. The queue holds
    plain (fire_time, sequence, kind, payload) tuples; sequence numbers are
    unique, so tuple order never compares kinds or payloads.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._pending: list[tuple[float, int, EventKind, Any]] = []
        self._next_sequence = 0
        # Indexed by kind: EventKind is an IntEnum.
        self._handlers: list[Callable[[float, Any], None] | None] = [None] * (max(EventKind) + 1)
        self._last_key = (-math.inf, -1)

    def on(self, kind: EventKind, handler: Callable[[float, Any], None]) -> None:
        self._handlers[kind] = handler

    def schedule(self, fire_time: float, kind: EventKind, payload: Any = None) -> None:
        if fire_time < self.now:
            raise SchedulingError(
                f"cannot schedule {kind.name} at t={fire_time:.9f}: "
                f"clock is already at t={self.now:.9f}"
            )
        heapq.heappush(self._pending, (fire_time, self._next_sequence, kind, payload))
        self._next_sequence += 1

    def run_until(self, t_end: float) -> None:
        """Dispatch every event with fire_time <= t_end; clock ends at t_end."""
        if t_end < self.now:
            raise SchedulingError(
                f"run_until({t_end}) precedes current clock t={self.now}"
            )
        pending = self._pending
        handlers = self._handlers
        pop = heapq.heappop
        # Comparing whole entries compares (fire_time, sequence): sequence
        # numbers are unique, so the comparison never reaches the kind.
        last = self._last_key
        try:
            while pending and pending[0][0] <= t_end:
                entry = pop(pending)
                if entry < last:
                    raise RuntimeError(f"event dispatched out of order: {Event(*entry)}")
                last = entry
                fire_time, _, kind, payload = entry
                self.now = fire_time
                handlers[kind](fire_time, payload)
        finally:
            self._last_key = last[:2]
        self.now = t_end

    def pending_events(self) -> list[Event]:
        """Snapshot of undispatched events (end-of-run accounting)."""
        return [Event(*entry) for entry in sorted(self._pending)]


class Rng:
    """Seeded pseudo-random source shared by all stochastic decisions.

    The generator family is pinned to the stdlib Mersenne Twister
    (random.Random); golden regression values in the test suite depend on
    it, so changing the family invalidates them.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._r = random.Random(seed)

    def index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise ValueError(f"index() needs n >= 1, got {n}")
        return self._r.randrange(n)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._r.random()

    def sample(self, population: range, k: int) -> list[int]:
        """k distinct values drawn uniformly from population."""
        return self._r.sample(population, k)

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise ValueError(f"exponential() needs mean > 0, got {mean}")
        return self._r.expovariate(1.0 / mean)

    def geometric(self, mean: float) -> int:
        """Geometric variate on {1, 2, ...} with the given mean."""
        if mean < 1:
            raise ValueError(f"geometric() needs mean >= 1, got {mean}")
        if mean == 1:
            return 1
        p = 1.0 / mean
        u = self._r.random()
        return int(math.log(1.0 - u) / math.log(1.0 - p)) + 1
