import signal
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsol import _pykernel
from tsol.banks import banks_set
from tsol.core import (
    enumerate_tournaments,
    masks_from_bits,
    pair_positions,
    random_tournament,
    set_of,
    tournament_from_bits,
)
from tsol.reductions import Cnf, teq_gadget
from tsol.teq import TeqStats, teq_exact, teq_heuristic, teq_member, teq_solver, teq_trace

from oracles import (
    all_clauses,
    condorcet_winner,
    heuristic_oracle,
    random_cnf,
    relation_pairs,
    restrict,
    source_components,
    teq_oracle,
)


def idx(t, *names):
    return frozenset(t.index(n) for n in names)


def names(t, indices):
    return {t.names[i] for i in indices}


FIG1_PAIRS = [("c", "a"), ("a", "b"), ("b", "c"), ("a", "d"), ("a", "e"), ("c", "e"), ("d", "e")]


def test_heuristic_walk_ends_on_fig1(fig1):
    # the first heuristic call of the file, under a 2 s alarm: a walk that
    # never ends fails here in seconds instead of hanging the suite
    def expire(signum, frame):
        raise TimeoutError("teq_heuristic(fig1) ran past 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        stats = teq_heuristic(fig1).stats
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert stats == TeqStats(4, 4, 3)


class TestTeqExact:
    def test_fig1_set_and_relation(self, fig1):
        res = teq_exact(fig1)
        assert res.teq_set == idx(fig1, "a", "b", "c")
        expected = frozenset((fig1.index(x), fig1.index(y)) for x, y in FIG1_PAIRS)
        assert relation_pairs(res) == expected
        assert res.carrier == frozenset(range(5))

    def test_condorcet_winner_selected(self):
        for t in enumerate_tournaments(4):
            w = condorcet_winner(t, range(4))
            if w is not None:
                assert teq_exact(t).teq_set == {w}

    def test_three_cycle(self):
        t = tournament_from_bits(3, 0b101)
        assert teq_exact(t).teq_set == {0, 1, 2}

    def test_stats_shape(self, fig1):
        assert teq_exact(fig1).stats == TeqStats(9, 6)
        assert teq_heuristic(fig1).stats == TeqStats(4, 4, 3)
        t = teq_gadget(random_cnf(Random(5), 3)).tournament
        assert teq_exact(t).stats == TeqStats(809, 88)
        assert teq_heuristic(t).stats == TeqStats(475, 242, 4)

    @given(st.integers(1, 7), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_relation_inside_dominance(self, n, seed):
        t = random_tournament(n, seed)
        res = teq_exact(t)
        assert res.teq_set
        pairs = relation_pairs(res)
        for b, a in pairs:
            assert t.dominates(b, a)
        for a in range(n):
            if t.cols[a]:  # somebody beats a, so somebody TEQ-dominates a
                assert any(pair[1] == a for pair in pairs)

    def test_subset_query(self, fig1):
        sub = restrict(fig1, idx(fig1, "a", "c", "d"))
        res = teq_exact(sub)
        assert names(sub, res.teq_set) == {"a", "c", "d"}  # 3-cycle
        assert res.carrier == frozenset(range(3))

    def test_more_alternatives_than_a_machine_word(self):
        n = 70
        t = tournament_from_bits(n, (1 << (n * (n - 1) // 2)) - 1)  # total order
        assert teq_exact(t).teq_set == {0}


class TestTeqMember:
    def test_fig1(self, fig1):
        assert teq_member(fig1, fig1.index("a"))
        assert not teq_member(fig1, fig1.index("d"))

    def test_condorcet_winner(self):
        t = tournament_from_bits(4, 0b111111)
        assert teq_member(t, 0)

    def test_negative_index_rejected(self, fig1):
        with pytest.raises(ValueError, match="^alternative -1 out of range for 5 alternatives$"):
            teq_member(fig1, -1)

    def test_index_past_the_end_rejected(self, fig1):
        with pytest.raises(ValueError, match="^alternative 5 out of range for 5 alternatives$"):
            teq_member(fig1, 5)


class TestTeqHeuristic:
    def test_fig1_matches_exact(self, fig1):
        assert teq_heuristic(fig1).teq_set == teq_exact(fig1).teq_set

    def test_singleton(self, fig1):
        sub = restrict(fig1, [1])
        res = teq_heuristic(sub)
        assert names(sub, res.teq_set) == {fig1.names[1]}
        assert res.stats.iterations == 1

    def test_exhaustive_equality_small(self):
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                assert teq_heuristic(t).teq_set == teq_exact(t).teq_set

    def test_matches_the_walk_oracle(self):
        # every n <= 5 tournament, whose base is always its TEQ, and seeded
        # n = 6 ones, where the base is sometimes larger than the TEQ
        rng = Random(6)
        sixes = [tournament_from_bits(6, rng.getrandbits(15)) for _ in range(300)]
        larger_bases = 0
        for t in [t for n in range(1, 6) for t in enumerate_tournaments(n)] + sixes:
            res = teq_heuristic(t)
            got = (res.teq_set, res.carrier, relation_pairs(res), res.stats.iterations)
            assert got == heuristic_oracle(t)
            larger_bases += res.carrier != res.teq_set
        assert larger_bases > 0

    @given(st.integers(1, 10), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_terminates_within_carrier_size(self, n, seed):
        t = random_tournament(n, seed)
        res = teq_heuristic(t)
        assert 1 <= res.stats.iterations <= n
        assert res.teq_set == source_components(res.carrier, relation_pairs(res))

    @given(st.integers(1, 9), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_matches_exact_on_random(self, n, seed):
        t = random_tournament(n, seed)
        assert teq_heuristic(t).teq_set == teq_exact(t).teq_set

    def test_seed_is_every_alternative_with_the_fewest_dominators(self):
        # the heuristic seeds from this tie set; the exact solver closes
        # its top cycle from it
        for n in range(1, 5):
            for t in enumerate_tournaments(n):
                for mask in range(1, 1 << n):
                    x = [a for a in range(n) if mask >> a & 1]
                    doms = {a: sum(t.dominates(b, a) for b in x) for a in x}
                    k = min(doms.values())
                    seed = sum(1 << a for a in x if doms[a] == k)
                    assert _pykernel._fewest_dominators(t.cols, mask) == seed

    def test_relation_carrier_is_base_set(self, fig1):
        res = teq_heuristic(fig1)
        for b, a in relation_pairs(res):
            assert b in res.carrier
            assert a in res.carrier
            assert fig1.dominates(b, a)


def assert_matches_oracle(t):
    res = teq_exact(t)
    teq_set, pairs = teq_oracle(t)
    assert res.teq_set == teq_set
    assert relation_pairs(res) == pairs
    assert res.carrier == frozenset(range(t.n))


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
            sub = restrict(fig1, [i for i in range(fig1.n) if mask >> i & 1])
            want = names(sub, teq_exact(sub).teq_set)
            assert names(fig1, set_of(teq_of(mask))) == want

    def test_matches_single_shot_on_gadget_subsets(self):
        t = teq_gadget(random_cnf(Random(5), 3)).tournament
        teq_of = teq_solver(t)
        rng = Random(11)
        for _ in range(40):
            mask = rng.getrandbits(t.n) or 1
            sub = restrict(t, [i for i in range(t.n) if mask >> i & 1])
            want = names(sub, teq_exact(sub).teq_set)
            assert names(t, set_of(teq_of(mask))) == want


class TestSweepMemo:
    """One memo per kernel shared across every tournament of a size, in bit
    order, as an exhaustive sweep task shares it."""

    @staticmethod
    def mismatches(n, pairs):
        """Instances whose shared-memo tuples differ from fresh calls (apart
        from ``calls`` and ``subsets``), and the two memos' sizes."""
        exact_memo, heuristic_memo = {}, {}
        bad_exact = bad_heuristic = 0
        for bits in range(1 << comb(n, 2)):
            _, cols = masks_from_bits(n, bits)
            fresh = _pykernel.teq_exact_masks(cols)
            shared = _pykernel.teq_exact_masks(cols, (exact_memo, pairs, bits))
            bad_exact += fresh[:2] != shared[:2]
            fresh = _pykernel.teq_heuristic_masks(cols)
            shared = _pykernel.teq_heuristic_masks(cols, (heuristic_memo, pairs, bits))
            bad_heuristic += (fresh[:3], fresh[5]) != (shared[:3], shared[5])
        return bad_exact, bad_heuristic, len(exact_memo), len(heuristic_memo)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_fresh_calls_within_the_bound(self, n):
        bad_exact, bad_heuristic, exact_size, heuristic_size = self.mismatches(
            n, pair_positions(n)
        )
        assert (bad_exact, bad_heuristic) == (0, 0)
        bound = sum(comb(n, k) * 2 ** comb(k, 2) for k in range(1, n))
        assert exact_size <= bound and heuristic_size <= bound

    def test_a_key_without_the_pair_bits_fails(self):
        # every pair table entry 0: the memo is keyed by the set alone
        assert self.mismatches(5, [0] * 32)[:2] == (939, 444)

    def test_pair_positions_fix_the_restriction(self):
        n = 5
        pairs = pair_positions(n)
        rng = Random(4)
        for x in range(1 << n):
            assert pairs[x].bit_count() == comb(x.bit_count(), 2)
            members = [a for a in range(n) if x >> a & 1]
            for _ in range(8):
                bits = rng.getrandbits(comb(n, 2))
                cols = masks_from_bits(n, bits)[1]
                kept = masks_from_bits(n, bits & pairs[x])[1]
                assert [cols[a] & x for a in members] == [kept[a] & x for a in members]


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

    def test_shared_solver_gives_the_same_trace(self, fig1):
        teq_of = teq_solver(fig1)
        teq_of(fig1.full_mask)
        assert teq_trace(fig1, depth_limit=2, teq_of=teq_of) == teq_trace(fig1, depth_limit=2)

    def test_depth_zero_root_only(self, fig1):
        assert teq_trace(fig1, depth_limit=0) == "TEQ{a b c d e} = {a b c}\n"

    def test_singleton(self, fig1):
        assert teq_trace(tournament_from_bits(1, 0), depth_limit=3) == "TEQ{a} = {a}\n"

    def test_negative_depth_rejected(self, fig1):
        with pytest.raises(ValueError):
            teq_trace(fig1, depth_limit=-1)

    def test_deeper_trace_is_prefix_consistent(self, fig1):
        shallow = teq_trace(fig1, depth_limit=1).splitlines()
        deep = teq_trace(fig1, depth_limit=2).splitlines()
        assert [l for l in deep if not l.startswith("    ")] == shallow
