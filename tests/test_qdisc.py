import pytest
from hypothesis import given, strategies as st

from aqmsim.engine import Rng
from aqmsim.qdisc import (
    Discipline,
    Outcome,
    Packet,
    QdiscParams,
    QdiscState,
    dequeue,
    drawing_factor,
    drawing_split,
    enqueue,
    enqueue_choke,
    enqueue_choked,
    enqueue_droptail,
    enqueue_gchoke,
    enqueue_red,
    partition_regions,
    red_drop_probability,
    update_avg_queue,
)

PARAMS = QdiscParams(capacity=100, t_min=40, t_max=80, w_q=0.02, max_p=0.1, maxcomp=3)


def make_state(discipline, flows=(), q_a=0.0, params=PARAMS):
    buf = [Packet(flow_id=f, seq=i) for i, f in enumerate(flows)]
    return QdiscState(params=params, discipline=discipline, buffer=buf, q_a=q_a)


class TestAvgQueue:
    def test_fixed_point(self):
        assert update_avg_queue(40.0, 40, 0.02) == pytest.approx(40.0, abs=1e-12)

    def test_zero_state_step(self):
        assert update_avg_queue(0.0, 50, 0.02) == pytest.approx(1.0, abs=1e-12)

    def test_step_value(self):
        assert update_avg_queue(40.0, 80, 0.02) == pytest.approx(40.8, abs=1e-12)

    @given(st.floats(0, 200), st.integers(0, 100), st.floats(0.001, 1.0))
    def test_stays_between_inputs(self, q_a, q_c, w_q):
        out = update_avg_queue(q_a, q_c, w_q)
        assert min(q_a, q_c) - 1e-9 <= out <= max(q_a, q_c) + 1e-9


class TestRedProbability:
    def test_lower_boundary(self):
        assert red_drop_probability(40.0, PARAMS) == 0.0
        assert red_drop_probability(30.0, PARAMS) == 0.0

    def test_above_max_drops_all(self):
        assert red_drop_probability(85.0, PARAMS) == 1.0
        assert red_drop_probability(80.0, PARAMS) == 1.0

    def test_linear_interpolation(self):
        assert red_drop_probability(60.0, PARAMS) == pytest.approx(0.05, abs=1e-12)


class TestDrawingFactor:
    def test_anchor_83(self):
        assert drawing_factor(83, PARAMS) == 5

    def test_anchor_11(self):
        assert drawing_factor(11, PARAMS) == 1

    def test_empty_queue(self):
        assert drawing_factor(0, PARAMS) == 0

    def test_monotone_in_occupancy(self):
        values = [drawing_factor(q, PARAMS) for q in range(PARAMS.capacity + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_split_paper_anchor(self):
        assert drawing_split(5) == (5, 3)

    def test_split_zero(self):
        assert drawing_split(0) == (0, 0)

    def test_split_even(self):
        assert drawing_split(4) == (4, 2)


class TestPartitionRegions:
    def test_even(self):
        front, rear = partition_regions(100)
        assert (front.start, front.stop) == (0, 50)
        assert (rear.start, rear.stop) == (50, 100)

    def test_empty(self):
        front, rear = partition_regions(0)
        assert len(front) == 0 and len(rear) == 0

    def test_odd_gives_rear_the_extra_slot(self):
        front, rear = partition_regions(7)
        assert (front.start, front.stop) == (0, 3)
        assert (rear.start, rear.stop) == (3, 7)

    @given(st.integers(0, 1000))
    def test_disjoint_cover(self, q_c):
        front, rear = partition_regions(q_c)
        assert front.stop == rear.start
        assert len(front) + len(rear) == q_c
        assert len(rear) >= len(front)


class TestDroptail:
    def test_admits_below_capacity(self):
        state = make_state(Discipline.DROPTAIL, flows=[1] * 99)
        decision = enqueue_droptail(state, Packet(2, 0))
        assert decision.outcome is Outcome.ADMIT
        assert len(state.buffer) == 100

    def test_drops_at_capacity(self):
        state = make_state(Discipline.DROPTAIL, flows=[1] * 100)
        decision = enqueue_droptail(state, Packet(2, 0))
        assert decision.outcome is Outcome.DROP_ARRIVING
        assert len(state.buffer) == 100

    def test_admits_into_empty(self):
        state = make_state(Discipline.DROPTAIL)
        assert enqueue_droptail(state, Packet(1, 0)).outcome is Outcome.ADMIT


class TestRed:
    def test_below_min_admits(self):
        state = make_state(Discipline.RED, flows=[1] * 50, q_a=30.0)
        assert enqueue_red(state, Packet(2, 0), Rng(1)).outcome is Outcome.ADMIT

    def test_at_or_above_max_drops(self):
        state = make_state(Discipline.RED, flows=[1] * 50, q_a=85.0)
        assert enqueue_red(state, Packet(2, 0), Rng(1)).outcome is Outcome.DROP_ARRIVING

    def test_full_buffer_drops_even_below_min(self):
        state = make_state(Discipline.RED, flows=[1] * 100, q_a=10.0)
        assert enqueue_red(state, Packet(2, 0), Rng(1)).outcome is Outcome.DROP_ARRIVING

    def test_empirical_drop_rate_in_band(self):
        # Q_a = 60 with max_p = 0.1 gives p = 0.05; 1e5 trials.
        rng = Rng(31)
        drops = 0
        trials = 100_000
        state = make_state(Discipline.RED, flows=[1] * 50, q_a=60.0)
        for _ in range(trials):
            decision = enqueue_red(state, Packet(2, 0), rng)
            if decision.outcome is Outcome.DROP_ARRIVING:
                drops += 1
            else:
                state.buffer.pop()  # restore occupancy
        assert drops / trials == pytest.approx(0.05, abs=0.005)


class TestChoke:
    def test_forced_match_removes_two_total(self):
        state = make_state(Discipline.CHOKE, flows=[7] * 50, q_a=60.0)
        decision = enqueue_choke(state, Packet(7, 99), Rng(1))
        assert decision.outcome is Outcome.MATCH_DROP
        assert len(decision.dropped_positions) == 1
        assert decision.draws_performed == 1
        assert len(state.buffer) == 49  # one queued victim; arrival never entered

    def test_forced_mismatch_admits_at_band_floor(self):
        # Q_a exactly t_min: drop probability is 0, so mismatch must admit.
        state = make_state(Discipline.CHOKE, flows=[7] * 50, q_a=40.0)
        decision = enqueue_choke(state, Packet(9, 0), Rng(1))
        assert decision.outcome is Outcome.ADMIT
        assert state.buffer[-1].flow_id == 9

    def test_empty_buffer_in_band_skips_draw(self):
        state = make_state(Discipline.CHOKE, flows=[], q_a=40.0)
        decision = enqueue_choke(state, Packet(9, 0), Rng(1))
        assert decision.outcome is Outcome.ADMIT
        assert decision.draws_performed == 0

    def test_match_drop_still_cleans_at_or_above_max(self):
        # The arriving packet can never be admitted there, but a matched
        # queued packet is still removed (draw precedes the threshold test).
        state = make_state(Discipline.CHOKE, flows=[7] * 50, q_a=85.0)
        decision = enqueue_choke(state, Packet(7, 99), Rng(1))
        assert decision.outcome is Outcome.MATCH_DROP
        assert len(state.buffer) == 49

    def test_mismatch_at_or_above_max_drops_arrival(self):
        state = make_state(Discipline.CHOKE, flows=[7] * 50, q_a=85.0)
        decision = enqueue_choke(state, Packet(9, 0), Rng(1))
        assert decision.outcome is Outcome.DROP_ARRIVING
        assert len(state.buffer) == 50


def expected_gchoke_matches(n_same: int, n_total: int, draws_left: int) -> float:
    """Brute-force expectation of the matched-run length: each draw is
    uniform over the not-yet-matched packets; a mismatch stops the run."""
    if draws_left == 0 or n_total == 0 or n_same <= 0:
        return 0.0
    p = n_same / n_total
    return p * (1.0 + expected_gchoke_matches(n_same - 1, n_total - 1, draws_left - 1))


class TestGchoke:
    def test_homogeneous_buffer_capped_by_maxcomp(self):
        state = make_state(Discipline.GCHOKE, flows=[7] * 50, q_a=60.0)
        decision = enqueue_gchoke(state, Packet(7, 99), Rng(1))
        assert decision.outcome is Outcome.MATCH_DROP
        assert len(decision.dropped_positions) == 3
        assert decision.draws_performed == 3
        assert len(state.buffer) == 47

    def test_first_draw_mismatch_behaves_like_choke(self):
        state = make_state(Discipline.GCHOKE, flows=[9] * 50, q_a=40.0)
        decision = enqueue_gchoke(state, Packet(7, 0), Rng(1))
        assert decision.outcome is Outcome.ADMIT
        assert decision.draws_performed == 1

    def test_expected_matched_run_length(self):
        # Alternating buffer {7,9,7,9,...}: oracle vs 1e5 seeded trials.
        flows = [7, 9] * 10
        expected = expected_gchoke_matches(10, 20, PARAMS.maxcomp)
        rng = Rng(17)
        trials = 100_000
        total = 0
        for _ in range(trials):
            state = make_state(Discipline.GCHOKE, flows=flows, q_a=60.0)
            decision = enqueue_gchoke(state, Packet(7, 99), rng)
            if decision.outcome is Outcome.MATCH_DROP:
                total += len(decision.dropped_positions)
        empirical = total / trials
        assert empirical == pytest.approx(expected, rel=0.05)


class TestChoked:
    def test_homogeneous_rear_match(self):
        # Q_c=83, B=100: D_i=5; all rear draws match, 5 victims + arrival.
        state = make_state(Discipline.CHOKED, flows=[5] * 83, q_a=60.0)
        decision = enqueue_choked(state, Packet(5, 99), Rng(1))
        assert decision.outcome is Outcome.MATCH_DROP
        assert len(decision.dropped_positions) == 5
        assert decision.draws_performed == 5
        assert all(pos >= 41 for pos in decision.dropped_positions)  # rear = [41, 83)
        assert len(state.buffer) == 78

    def test_no_match_draws_both_regions(self):
        # Q_a exactly t_min: fallback probability 0, so the arrival admits
        # after D_r + D_f = 5 + 3 fruitless draws.
        state = make_state(Discipline.CHOKED, flows=[1] * 83, q_a=40.0)
        decision = enqueue_choked(state, Packet(5, 0), Rng(1))
        assert decision.outcome is Outcome.ADMIT
        assert decision.draws_performed == 8

    def test_front_match_after_clean_rear(self):
        # Front entirely the arriving flow, rear entirely another flow:
        # rear misses, front draws min(3, front size) and all match.
        flows = [5] * 41 + [9] * 42  # front [0,41) flow 5, rear [41,83) flow 9
        state = make_state(Discipline.CHOKED, flows=flows, q_a=60.0)
        decision = enqueue_choked(state, Packet(5, 99), Rng(1))
        assert decision.outcome is Outcome.MATCH_DROP
        assert len(decision.dropped_positions) == 3
        assert all(pos < 41 for pos in decision.dropped_positions)
        assert decision.draws_performed == 8

    def test_zero_drawing_factor_falls_back_directly(self):
        state = make_state(Discipline.CHOKED, flows=[5] * 5, q_a=40.0)
        decision = enqueue_choked(state, Packet(5, 99), Rng(1))
        assert decision.outcome is Outcome.ADMIT
        assert decision.draws_performed == 0

    def test_below_min_admits(self):
        state = make_state(Discipline.CHOKED, flows=[5] * 50, q_a=30.0)
        assert enqueue_choked(state, Packet(5, 99), Rng(1)).outcome is Outcome.ADMIT

    def test_at_or_above_max_drops_arriving(self):
        state = make_state(Discipline.CHOKED, flows=[5] * 50, q_a=80.0)
        decision = enqueue_choked(state, Packet(5, 99), Rng(1))
        assert decision.outcome is Outcome.DROP_ARRIVING
        assert decision.draws_performed == 0

    def test_full_buffer_drops_even_below_min(self):
        state = make_state(Discipline.CHOKED, flows=[1] * 100, q_a=10.0)
        assert enqueue_choked(state, Packet(5, 0), Rng(1)).outcome is Outcome.DROP_ARRIVING

    def test_non_match_decision_preserves_buffer(self):
        state = make_state(Discipline.CHOKED, flows=[1, 2, 3] * 20, q_a=50.0)
        before = [(p.flow_id, p.seq) for p in state.buffer]
        rng = Rng(3)
        for _ in range(200):
            pk = Packet(99, 0)
            decision = enqueue_choked(state, pk, rng)
            assert decision.outcome is not Outcome.MATCH_DROP
            after = [(p.flow_id, p.seq) for p in state.buffer]
            if decision.outcome is Outcome.ADMIT:
                assert after == before + [(99, 0)]
                state.buffer.pop()
            else:
                assert after == before

    def test_draw_bound_holds_over_random_arrivals(self):
        rng = Rng(11)
        state = make_state(Discipline.CHOKED)
        now = 0.0
        for i in range(20_000):
            q_c = len(state.buffer)
            bound = sum(drawing_split(drawing_factor(q_c, PARAMS)))
            pk = Packet(rng.index(5) + 1, i)
            decision = enqueue(state, pk, rng, now)
            assert decision.draws_performed <= bound or decision.draws_performed == 0
            assert len(state.buffer) <= PARAMS.capacity
            now += 0.001
            if rng.random() < 0.4:
                dequeue(state)

    def test_clean_buffer_matches_red_rate(self):
        # No packet of the arriving flow anywhere: the match stages are
        # no-ops and the admit/drop split must equal RED's at the same Q_a.
        rng = Rng(23)
        trials = 100_000
        drops = 0
        state = make_state(Discipline.CHOKED, flows=[2] * 50, q_a=60.0)
        for _ in range(trials):
            decision = enqueue_choked(state, Packet(1, 0), rng)
            assert decision.outcome is not Outcome.MATCH_DROP
            if decision.outcome is Outcome.DROP_ARRIVING:
                drops += 1
            else:
                state.buffer.pop()
        assert drops / trials == pytest.approx(0.05, abs=0.005)


class TestDequeue:
    def test_fifo_order(self):
        state = make_state(Discipline.DROPTAIL, flows=[1, 2, 3])
        head = dequeue(state)
        assert head.flow_id == 1
        assert [p.flow_id for p in state.buffer] == [2, 3]

    def test_empty_returns_none(self):
        assert dequeue(make_state(Discipline.DROPTAIL)) is None

    def test_round_trip(self):
        state = make_state(Discipline.DROPTAIL)
        pk = Packet(9, 42)
        enqueue_droptail(state, pk)
        assert dequeue(state) is pk

    def test_dequeue_does_not_touch_average(self):
        state = make_state(Discipline.DROPTAIL, flows=[1, 2], q_a=17.5)
        dequeue(state)
        assert state.q_a == 17.5


class TestDispatch:
    def test_ewma_updated_once_per_arrival_before_decision(self):
        state = make_state(Discipline.DROPTAIL, flows=[1] * 50, q_a=40.0)
        enqueue(state, Packet(2, 0), Rng(1), now=1.0)
        assert state.q_a == pytest.approx(update_avg_queue(40.0, 50, 0.02))

    def test_ewma_updates_even_for_dropped_arrivals(self):
        state = make_state(Discipline.DROPTAIL, flows=[1] * 100, q_a=40.0)
        decision = enqueue(state, Packet(2, 0), Rng(1), now=1.0)
        assert decision.outcome is Outcome.DROP_ARRIVING
        assert state.q_a == pytest.approx(update_avg_queue(40.0, 100, 0.02))

    def test_enqueue_stamps_admission_time(self):
        state = make_state(Discipline.DROPTAIL)
        pk = Packet(1, 0)
        enqueue(state, pk, Rng(1), now=3.25)
        assert pk.enqueue_time == 3.25
