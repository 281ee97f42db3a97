"""Instrumentation the benchmark installs around aqmsim's public entry points.

Two kinds, both installed only for the duration of a `with` block and
removed afterwards, so untraced runs execute the unmodified program:

- `counting()` counts events per kind, scheduling, RTO expiries and
  retransmissions. Every count is a pure function of (scenario, seed), so
  one untimed reference run per scenario gives them exactly.
- `tracing(recorder)` records a span (name, start, end, parent) around every
  call of each wrapped entry point. Spans are kept in flat arrays in memory
  and written out by `SpanRecorder.write` when the benchmark ends.

A span is named `<module>.<qualname>` of the function it wraps, so its
layer is the aqmsim module the code lives in.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from aqmsim import engine, harness, metrics, qdisc, transport

# Short names for engine.events.<kind>; a kind not listed keeps its own name.
KIND_NAMES = {
    "PACKET_ARRIVAL_AT_QUEUE": "arrival",
    "TRANSMISSION_COMPLETE": "tx_complete",
    "PROPAGATION_DELIVERY": "delivery",
    "ACK_DELIVERY": "ack",
    "TIMER_EXPIRY": "timer",
    "SOURCE_EMIT": "emit",
}

TRANSPORT_CLASSES = (transport.TcpSource, transport.CbrSource, transport.TcpSink, transport.UdpSink)


def kind_name(kind) -> str:
    return KIND_NAMES.get(kind.name, kind.name.lower())


def observer_methods() -> list[str]:
    """The MetricsCollector methods the topology calls as an observer."""
    return sorted(n for n in vars(metrics.MetricsCollector) if n.startswith("on_") or n == "sample_queue")


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


# -- counting --------------------------------------------------------------


class Counts:
    """Per-run counts taken at the same boundaries the spans use."""

    def __init__(self) -> None:
        self.events: Counter[str] = Counter()
        self.scheduled = 0
        self.dispatched = 0
        self.pending_peak = 0
        self.rto_events = 0
        self.rto_fired = 0
        self.retransmissions = 0
        self._in_timer = False
        self._timer_sent = False


@contextmanager
def counting(counts: Counts):
    orig_on = engine.EventLoop.on
    orig_schedule = engine.EventLoop.schedule
    orig_on_timer = transport.TcpSource.on_timer
    orig_on_emit = metrics.MetricsCollector.on_emit

    def on(self, kind, handler):
        name = kind_name(kind)

        def counted(now, payload):
            counts.events[name] += 1
            counts.dispatched += 1
            return handler(now, payload)

        return orig_on(self, kind, counted)

    def schedule(self, *args, **kwargs):
        counts.scheduled += 1
        counts.pending_peak = max(counts.pending_peak, counts.scheduled - counts.dispatched)
        return orig_schedule(self, *args, **kwargs)

    def on_timer(self, *args, **kwargs):
        # An expiry whose token is current retransmits; a stale one returns
        # without sending, so "sent during the call" tells the two apart.
        counts.rto_events += 1
        counts._in_timer, counts._timer_sent = True, False
        try:
            return orig_on_timer(self, *args, **kwargs)
        finally:
            counts.rto_fired += counts._timer_sent
            counts._in_timer = False

    def on_emit(self, pk):
        if pk.is_retransmission:
            counts.retransmissions += 1
            if counts._in_timer:
                counts._timer_sent = True
        return orig_on_emit(self, pk)

    with patched(
        [
            (engine.EventLoop, "on", on),
            (engine.EventLoop, "schedule", schedule),
            (transport.TcpSource, "on_timer", on_timer),
            (metrics.MetricsCollector, "on_emit", on_emit),
        ]
    ):
        yield counts


# -- observer substitution -------------------------------------------------


def _ignore(self, *args, **kwargs):
    return None


NullObserver = type("NullObserver", (), {name: _ignore for name in observer_methods()})


@contextmanager
def null_observer():
    """run_experiment builds its topology around a do-nothing observer, so
    the collector records nothing while the simulated trajectory, which
    never reads the observer, stays the same."""
    orig_build = harness.build_dumbbell

    def build(scenario, loop, rng, observer):
        return orig_build(scenario, loop, rng, NullObserver())

    with patched([(harness, "build_dumbbell", build)]):
        yield


# -- spans -----------------------------------------------------------------


class SpanRecorder:
    """Spans in flat arrays: name id, parent index (-1 for a root), start
    and end in `time.perf_counter` seconds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str | None = None):
        nid = self.name_id(name or span_name(fn))
        names, parents, starts, ends = self.name.append, self.parent.append, self.start.append, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(fn, name)(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        start, end = self.start, self.end
        child = array("d", bytes(8 * len(end)))  # flat, as a run holds millions of spans
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        total = [0.0] * len(self.names)
        for nid, s, e, c in zip(self.name, start, end, child):
            total[nid] += e - s - c
        return dict(zip(self.names, total))

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == nid]

    def tail_after(self, inner: str) -> float:
        """Sum over `inner` spans of parent end minus their own end."""
        nid = self._ids.get(inner)
        return sum(self.end[p] - e for n, p, e in zip(self.name, self.parent, self.end) if n == nid and p >= 0)

    def write(self, path: str) -> None:
        """One JSON header line, then the raw name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "count": len(self.end),
            "arrays": [["name", self.name.typecode], ["parent", self.parent.typecode],
                       ["start", self.start.typecode], ["end", self.end.typecode]],
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


@contextmanager
def tracing(rec: SpanRecorder):
    """Wrap every public entry point the layer metrics are read from."""
    orig_on = engine.EventLoop.on
    orig_build = harness.build_dumbbell
    traced_build = rec.wrap(orig_build)

    def on(self, kind, handler):
        return orig_on(self, kind, rec.wrap(handler))

    def build(scenario, loop, rng, observer):
        dumbbell = traced_build(scenario, loop, rng, observer)
        # The per-flow transmit closures are topology code that the sources
        # call; wrap them so their time is not counted as transport.
        for source in dumbbell.sources.values():
            if hasattr(source, "_transmit"):
                source._transmit = rec.wrap(source._transmit)
        return dumbbell

    replacements = [
        (engine.EventLoop, "on", on),
        (engine.EventLoop, "schedule", rec.wrap(engine.EventLoop.schedule)),
        (engine.EventLoop, "run_until", rec.wrap(engine.EventLoop.run_until)),
        (qdisc, "enqueue", rec.wrap(qdisc.enqueue)),
        (qdisc, "dequeue", rec.wrap(qdisc.dequeue)),
        (harness, "build_dumbbell", build),
    ]
    for cls in TRANSPORT_CLASSES:
        for attr in sorted(vars(cls)):
            if attr.startswith("on_"):
                replacements.append((cls, attr, rec.wrap(vars(cls)[attr])))
    for attr in observer_methods():
        replacements.append((metrics.MetricsCollector, attr, rec.wrap(vars(metrics.MetricsCollector)[attr])))
    with patched(replacements):
        yield rec


def layer_times(rec: SpanRecorder) -> dict[str, float]:
    """Host seconds per layer metric for the spans in `rec`.

    Everything a span does outside its children counts once, in the layer
    of the module its function belongs to.
    """
    self_s = rec.self_times()

    def total(match) -> float:
        return sum(t for name, t in self_s.items() if match(name))

    def prefix(*prefixes):
        return lambda name: name.startswith(prefixes)

    return {
        "engine.self_s": total(prefix("engine.")),
        "topology.self_s": total(lambda n: n.startswith("topology.") and n != "topology.build_dumbbell"),
        "topology.build_s": self_s.get("topology.build_dumbbell", 0.0),
        "qdisc.enqueue_s": self_s.get("qdisc.enqueue", 0.0),
        "qdisc.dequeue_s": self_s.get("qdisc.dequeue", 0.0),
        "transport.tcp_s": total(prefix("transport.TcpSource.")),
        "transport.cbr_s": total(prefix("transport.CbrSource.")),
        "transport.sink_s": total(prefix("transport.TcpSink.", "transport.UdpSink.")),
        "metrics.observer_s": total(prefix("metrics.MetricsCollector.")),
        "harness.report_s": rec.tail_after("engine.EventLoop.run_until"),
        "harness.emit_s": self_s.get("harness.emit_outputs", 0.0),
    }
