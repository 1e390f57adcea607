from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsol import _pykernel
from tsol.banks import banks_set
from tsol.core import (
    condorcet_winner,
    enumerate_tournaments,
    random_tournament,
    tournament_from_bits,
)
from tsol.reductions import Cnf, teq_gadget
from tsol.teq import teq_exact, teq_heuristic, teq_member, teq_solver, teq_trace

from oracles import all_clauses, random_cnf, teq_oracle


def idx(t, *names):
    return frozenset(t.index(n) for n in names)


FIG1_PAIRS = [("c", "a"), ("a", "b"), ("b", "c"), ("a", "d"), ("a", "e"), ("c", "e"), ("d", "e")]


class TestTeqExact:
    def test_fig1_set_and_relation(self, fig1):
        res = teq_exact(fig1)
        assert res.teq_set == idx(fig1, "a", "b", "c")
        expected = frozenset((fig1.index(x), fig1.index(y)) for x, y in FIG1_PAIRS)
        assert res.teq_relation.pairs == expected
        assert res.teq_relation.carrier == frozenset(range(5))

    def test_condorcet_winner_selected(self):
        for t in enumerate_tournaments(4):
            w = condorcet_winner(t, range(4))
            if w is not None:
                assert teq_exact(t).teq_set == {w}

    def test_three_cycle(self):
        t = tournament_from_bits(3, 0b101)
        assert teq_exact(t).teq_set == {0, 1, 2}

    def test_empty_subset_rejected(self, fig1):
        with pytest.raises(ValueError):
            teq_exact(fig1, [])

    def test_stats_shape(self, fig1):
        stats = teq_exact(fig1).stats
        assert stats.calls >= stats.subsets >= 1

    @given(st.integers(1, 7), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_relation_inside_dominance(self, n, seed):
        t = random_tournament(n, seed)
        res = teq_exact(t)
        assert res.teq_set
        for b, a in res.teq_relation.pairs:
            assert t.dominates(b, a)
        for a in range(n):
            if t.cols[a]:  # somebody beats a, so somebody TEQ-dominates a
                assert any(pair[1] == a for pair in res.teq_relation.pairs)

    def test_subset_query(self, fig1):
        sub = idx(fig1, "a", "c", "d")
        res = teq_exact(fig1, sub)
        assert res.teq_set == sub  # 3-cycle
        assert res.teq_relation.carrier == sub

    def test_more_alternatives_than_a_machine_word(self):
        n = 70
        t = tournament_from_bits(n, (1 << (n * (n - 1) // 2)) - 1)  # total order
        assert teq_exact(t).teq_set == {0}


class TestTeqMember:
    def test_fig1(self, fig1):
        assert teq_member(fig1, range(5), fig1.index("a"))
        assert not teq_member(fig1, range(5), fig1.index("d"))

    def test_condorcet_winner(self):
        t = tournament_from_bits(4, 0b111111)
        assert teq_member(t, range(4), 0)

    def test_requires_membership(self, fig1):
        with pytest.raises(ValueError):
            teq_member(fig1, [0, 1], 4)


class TestTeqHeuristic:
    def test_fig1_matches_exact(self, fig1):
        assert teq_heuristic(fig1).teq_set == teq_exact(fig1).teq_set

    def test_singleton(self, fig1):
        res = teq_heuristic(fig1, [1])
        assert res.teq_set == {1}
        assert res.stats.iterations == 1

    def test_exhaustive_equality_small(self):
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                assert teq_heuristic(t).teq_set == teq_exact(t).teq_set

    @given(st.integers(1, 10), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_terminates_within_carrier_size(self, n, seed):
        t = random_tournament(n, seed)
        res = teq_heuristic(t)
        assert 1 <= res.stats.iterations <= n
        assert res.teq_set == top_cycle_of(res)

    @given(st.integers(1, 9), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_matches_exact_on_random(self, n, seed):
        t = random_tournament(n, seed)
        assert teq_heuristic(t).teq_set == teq_exact(t).teq_set

    def test_relation_carrier_is_base_set(self, fig1):
        res = teq_heuristic(fig1)
        for b, a in res.teq_relation.pairs:
            assert b in res.teq_relation.carrier
            assert a in res.teq_relation.carrier
            assert fig1.dominates(b, a)


def assert_matches_oracle(t):
    res = teq_exact(t)
    teq_set, pairs = teq_oracle(t)
    assert res.teq_set == teq_set
    assert res.teq_relation.pairs == pairs
    assert res.teq_relation.carrier == frozenset(range(t.n))


class TestTopCycleRestriction:
    """The exact recursion shrinks nested sets to their top cycles; the
    unpruned frozenset oracle referees it."""

    def test_exhaustive_up_to_five(self):
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                assert_matches_oracle(t)

    def test_seeded_six(self):
        rng = Random(6)
        for _ in range(4000):
            assert_matches_oracle(tournament_from_bits(6, rng.getrandbits(15)))

    def test_one_clause_gadgets(self):
        for clause in all_clauses():
            assert_matches_oracle(teq_gadget(Cnf((clause,))).tournament)

    @pytest.mark.parametrize("m, count", [(2, 20), (3, 6), (4, 1)])
    def test_seeded_gadgets(self, m, count):
        rng = Random(100 + m)
        for _ in range(count):
            assert_matches_oracle(teq_gadget(random_cnf(rng, m)).tournament)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_heuristic_equals_exact_on_gadgets(self, m):
        t = teq_gadget(random_cnf(Random(200 + m), m)).tournament
        assert teq_heuristic(t).teq_set == teq_exact(t).teq_set


def top_cycle_of(res):
    from tsol.core import top_cycle

    return top_cycle(res.teq_relation)


class TestInclusionInBanks:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                assert teq_exact(t).teq_set <= banks_set(t)


class TestSharedSolver:
    def test_matches_single_shot_on_every_subset(self, fig1):
        teq_of = teq_solver(fig1)
        assert teq_of(0) == 0
        for mask in range(1, 1 << fig1.n):
            want = teq_exact(fig1, [i for i in range(fig1.n) if mask >> i & 1]).teq_set
            assert {i for i in range(fig1.n) if teq_of(mask) >> i & 1} == want

    def test_matches_single_shot_on_gadget_subsets(self):
        t = teq_gadget(random_cnf(Random(5), 3)).tournament
        teq_of = teq_solver(t)
        rng = Random(11)
        for _ in range(40):
            mask = rng.getrandbits(t.n) or 1
            assert teq_of(mask) == _pykernel.teq_exact_masks(t.rows, mask)[0]


class TestTrace:
    def test_fig1_depth_one(self, fig1):
        text = teq_trace(fig1, depth_limit=1)
        lines = text.splitlines()
        assert lines[0] == "TEQ{a b c d e} = {a b c}"
        assert lines[1:] == [
            "  D(a) = {c}: TEQ = {c}",
            "  D(b) = {a e}: TEQ = {a}",
            "  D(c) = {b d}: TEQ = {b}",
            "  D(d) = {a b}: TEQ = {a}",
            "  D(e) = {a c d}: TEQ = {a c d}",
        ]

    def test_depth_zero_root_only(self, fig1):
        assert teq_trace(fig1, depth_limit=0) == "TEQ{a b c d e} = {a b c}\n"

    def test_singleton(self, fig1):
        assert teq_trace(fig1, [0], depth_limit=3) == "TEQ{a} = {a}\n"

    def test_negative_depth_rejected(self, fig1):
        with pytest.raises(ValueError):
            teq_trace(fig1, depth_limit=-1)

    def test_deeper_trace_is_prefix_consistent(self, fig1):
        shallow = teq_trace(fig1, depth_limit=1).splitlines()
        deep = teq_trace(fig1, depth_limit=2).splitlines()
        assert [l for l in deep if not l.startswith("    ")] == shallow
