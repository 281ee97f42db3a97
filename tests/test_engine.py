import pytest

from aqmsim.engine import Event, EventKind, EventLoop, Rng, SchedulingError

K = EventKind.TIMER_EXPIRY


def make_recording_loop():
    loop = EventLoop()
    log = []
    for kind in EventKind:
        loop.on(kind, lambda t, payload, _k=kind: log.append((t, _k, payload)))
    return loop, log


def test_schedule_inserts_without_advancing_clock():
    loop, log = make_recording_loop()
    loop.schedule(5.0, K, "a")
    assert loop.now == 0.0
    assert log == []


def test_ties_dispatch_in_insertion_order():
    loop, log = make_recording_loop()
    loop.schedule(5.0, K, "first")
    loop.schedule(5.0, K, "second")
    loop.run_until(10.0)
    assert [p for _, _, p in log] == ["first", "second"]


def test_scheduling_into_the_past_rejected():
    loop, _ = make_recording_loop()
    loop.schedule(1.0, K, None)
    loop.run_until(1.0)
    with pytest.raises(SchedulingError):
        loop.schedule(0.9, K, None)


def test_run_until_empty_pending_advances_clock():
    loop, log = make_recording_loop()
    loop.run_until(10.0)
    assert loop.now == 10.0
    assert log == []


def test_run_until_dispatches_only_due_events():
    loop, log = make_recording_loop()
    for t in (1.0, 2.0, 3.0):
        loop.schedule(t, K, t)
    loop.run_until(2.0)
    assert [p for _, _, p in log] == [1.0, 2.0]
    loop.run_until(3.0)
    assert [p for _, _, p in log] == [1.0, 2.0, 3.0]


def test_handler_scheduled_event_respects_causality():
    loop = EventLoop()
    log = []

    def handler(t, payload):
        log.append(payload)
        if payload == "t1":
            loop.schedule(1.5, K, "t1.5")

    loop.on(K, handler)
    loop.schedule(1.0, K, "t1")
    loop.schedule(2.0, K, "t2")
    loop.run_until(5.0)
    assert log == ["t1", "t1.5", "t2"]


def test_clock_never_decreases_over_random_workload():
    loop = EventLoop()
    seen = []
    rng = Rng(99)

    def handler(t, payload):
        seen.append(t)
        if payload > 0:
            loop.schedule(t + rng.random(), K, payload - 1)

    loop.on(K, handler)
    for _ in range(50):
        loop.schedule(rng.random() * 5, K, 3)
    loop.run_until(50.0)
    assert seen == sorted(seen)
    assert loop.now == 50.0


def test_event_ordering_is_total():
    a = Event(1.0, 0, K, None)
    b = Event(1.0, 1, K, None)
    assert a < b and not b < a


def test_pending_events_are_event_records_in_dispatch_order():
    loop, _ = make_recording_loop()
    loop.schedule(2.0, K, "c")
    loop.schedule(1.0, EventKind.SOURCE_EMIT, "a")
    loop.schedule(2.0, K, "d")
    loop.schedule(1.0, K, "b")
    pending = loop.pending_events()
    assert all(isinstance(event, Event) for event in pending)
    assert [(e.fire_time, e.sequence, e.payload) for e in pending] == [
        (1.0, 1, "a"), (1.0, 3, "b"), (2.0, 0, "c"), (2.0, 2, "d"),
    ]
    assert pending[0].kind is EventKind.SOURCE_EMIT


def test_determinism_same_seed_same_dispatch_log():
    def run(seed):
        loop = EventLoop()
        rng = Rng(seed)
        log = []

        def handler(t, n):
            log.append((round(t, 12), n))
            if n < 200:
                loop.schedule(t + rng.random(), K, n + rng.index(3) + 1)

        loop.on(K, handler)
        loop.schedule(0.0, K, 0)
        loop.run_until(100.0)
        return log

    assert run(42) == run(42)
    assert run(42) != run(43)


class TestRng:
    def test_index_n1_only_outcome(self):
        assert Rng(1).index(1) == 0

    def test_index_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(1).index(0)

    def test_golden_triple_regression(self):
        # Frozen from random.Random(12345); pins the generator family.
        r = Rng(12345)
        assert [r.index(100) for _ in range(3)] == [53, 93, 1]

    def test_chi_square_uniformity(self):
        # 1e5 draws over 10 bins; chi-square critical value for
        # df=9 at the 0.01 level is 21.666.
        r = Rng(2024)
        n = 100_000
        counts = [0] * 10
        for _ in range(n):
            counts[r.index(10)] += 1
        expected = n / 10
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < 21.666

    def test_sample_draws_distinct(self):
        r = Rng(5)
        got = r.sample(range(10), 10)
        assert sorted(got) == list(range(10))

    def test_exponential_mean(self):
        r = Rng(6)
        n = 50_000
        mean = sum(r.exponential(2.0) for _ in range(n)) / n
        assert abs(mean - 2.0) < 0.05

    def test_geometric_mean_and_support(self):
        r = Rng(7)
        n = 50_000
        draws = [r.geometric(12.0) for _ in range(n)]
        assert min(draws) >= 1
        assert abs(sum(draws) / n - 12.0) < 0.3
