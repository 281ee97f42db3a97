import random
import sys

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


# Draw vectors of Rng, frozen on CPython 3.11. They pin the run's bytes to
# the Mersenne Twister's own outputs, so no later interpreter's `random`
# implementation can move them.

# (seed, n) -> the first five index(n) of Rng(seed). n covers 1, both sides
# of a power of two (7, 8, 9) and a draw that rejects almost half its bits.
INDEX_VECTORS = {
    (11, 1): [0, 0, 0, 0, 0],
    (11, 2): [1, 1, 1, 0, 0],
    (11, 3): [1, 2, 1, 1, 2],
    (11, 7): [3, 6, 4, 6, 6],
    (11, 8): [7, 7, 7, 3, 2],
    (11, 9): [7, 8, 7, 7, 8],
    (11, 100): [57, 71, 99, 59, 57],
    (11, 1048577): [948708, 976538, 947561, 398253, 387260],
    (30, 1): [0, 0, 0, 0, 0],
    (30, 2): [1, 0, 0, 1, 0],
    (30, 3): [2, 1, 2, 0, 2],
    (30, 7): [4, 6, 2, 4, 0],
    (30, 8): [4, 0, 3, 4, 0],
    (30, 9): [8, 4, 0, 3, 4],
    (30, 100): [69, 37, 78, 3, 79],
    (30, 1048577): [606488, 62991, 440420, 539548, 101661],
    (51, 1): [0, 0, 0, 0, 0],
    (51, 2): [0, 0, 0, 0, 1],
    (51, 3): [0, 2, 2, 0, 0],
    (51, 7): [1, 6, 4, 4, 1],
    (51, 8): [3, 2, 3, 3, 4],
    (51, 9): [3, 8, 8, 2, 3],
    (51, 100): [31, 64, 70, 20, 31],
    (51, 1048577): [510693, 339607, 516066, 485279, 536530],
}

# (seed, a, n, k) -> Rng(seed).sample(range(a, a + n), k). The rows sit on
# both sides of each of sample's branch boundaries: a pool for n <= 21 when
# k <= 5, for n <= 85 when k = 6, and a set of selections above.
SAMPLE_VECTORS = {
    (11, 3, 20, 5): [17, 20, 22, 21, 9],
    (11, 3, 21, 5): [17, 20, 23, 21, 19],
    (11, 3, 22, 5): [17, 20, 19, 21, 9],
    (11, 0, 40, 6): [28, 35, 29, 39, 32, 12],
    (11, 0, 85, 6): [57, 71, 59, 84, 65, 75],
    (11, 0, 86, 6): [57, 71, 59, 65, 75, 24],
    (11, 5, 10, 10): [12, 13, 14, 8, 9, 10, 6, 5, 11, 7],
    (30, 3, 20, 5): [20, 12, 3, 9, 11],
    (30, 3, 21, 5): [20, 12, 3, 9, 11],
    (30, 3, 22, 5): [20, 12, 22, 3, 23],
    (30, 0, 40, 6): [34, 18, 1, 13, 16, 3],
    (30, 0, 85, 6): [69, 37, 78, 3, 79, 26],
    (30, 0, 86, 6): [69, 37, 78, 3, 79, 83],
    (30, 5, 10, 10): [13, 9, 5, 14, 10, 6, 7, 12, 11, 8],
    (51, 3, 20, 5): [10, 19, 20, 8, 22],
    (51, 3, 21, 5): [10, 19, 20, 8, 23],
    (51, 3, 22, 5): [10, 19, 20, 8, 11],
    (51, 0, 40, 6): [15, 32, 35, 10, 39, 14],
    (51, 0, 85, 6): [31, 64, 70, 20, 84, 29],
    (51, 0, 86, 6): [31, 64, 70, 20, 29, 32],
    (51, 5, 10, 10): [8, 13, 7, 6, 11, 9, 12, 10, 14, 5],
}

# seed -> the first three exponential(2.5) of Rng(seed), compared exactly.
EXPONENTIAL_VECTORS = {
    11: [1.5054321197428748, 2.0511584536577407, 6.449491567507569],
    30: [1.936335453425021, 0.8533979484839039, 0.07624314565334618],
    51: [0.6976905653687032, 1.7439373691881324, 0.44165653998618065],
}

# One Rng(99) running every method in turn: index(7), sample(range(50), 4),
# exponential(2.5), random(), geometric(12.0), sample(range(10, 14), 3),
# index(2**20 + 1).
MIXED_SEQUENCE = [3, [24, 12, 38, 11], 0.6542650701694737, 0.1332444009175705, 2, [13, 12, 10], 1026083]


class TestDrawVectors:
    @pytest.mark.parametrize("seed, n", INDEX_VECTORS)
    def test_index(self, seed, n):
        r = Rng(seed)
        assert [r.index(n) for _ in range(5)] == INDEX_VECTORS[seed, n]

    @pytest.mark.parametrize("seed, a, n, k", SAMPLE_VECTORS)
    def test_sample(self, seed, a, n, k):
        assert Rng(seed).sample(range(a, a + n), k) == SAMPLE_VECTORS[seed, a, n, k]

    @pytest.mark.parametrize("seed", EXPONENTIAL_VECTORS)
    def test_exponential(self, seed):
        r = Rng(seed)
        assert [r.exponential(2.5) for _ in range(3)] == EXPONENTIAL_VECTORS[seed]

    def test_mixed_sequence(self):
        r = Rng(99)
        got = [r.index(7), r.sample(range(50), 4), r.exponential(2.5), r.random(), r.geometric(12.0),
               r.sample(range(10, 14), 3), r.index(2**20 + 1)]
        assert got == MIXED_SEQUENCE

    def test_sample_rejects_k_above_population(self):
        with pytest.raises(ValueError):
            Rng(1).sample(range(3), 4)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="restates CPython 3.11's random module")
    def test_matches_stdlib_3_11(self):
        for seed in range(40):
            ours, stdlib = Rng(seed), random.Random(seed)
            for n in (1, 2, 5, 21, 22, 64, 85, 86, 100, 300, 1000):
                assert ours.index(n) == stdlib.randrange(n)
                for k in sorted(k for k in {0, 1, 2, 5, 6, n // 3, n} if k <= n):
                    a = seed + n
                    assert ours.sample(range(a, a + n), k) == stdlib.sample(range(a, a + n), k)
            assert ours.exponential(2.5) == stdlib.expovariate(1.0 / 2.5)
