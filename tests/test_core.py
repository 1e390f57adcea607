import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsol import _pykernel
from tsol.core import (
    Tournament,
    default_names,
    enumerate_tournaments,
    format_tournament,
    masks_from_bits,
    masks_in_bit_order,
    parse_tournament,
    random_tournament,
    tournament_from_bits,
)

from oracles import (
    condorcet_winner,
    reached_from,
    restrict,
    scc_count,
    source_components,
    transitive_by_triples,
)


def idx(t, *names):
    return [t.index(n) for n in names]


def in_edges_of(n, pairs):
    """``in_edges[a]``: the mask of b with (b, a) in ``pairs``."""
    in_edges = [0] * n
    for b, a in pairs:
        in_edges[a] |= 1 << b
    return in_edges


def top_cycle(n, pairs):
    """The kernel's top cycle of ({0..n-1}, pairs) as a set."""
    tc = _pykernel.top_cycle_masks((1 << n) - 1, in_edges_of(n, pairs))
    return {a for a in range(n) if tc >> a & 1}


class TestTournamentInvariants:
    def test_rejects_self_domination(self):
        with pytest.raises(ValueError, match="dominates itself"):
            Tournament(("a", "b"), (0b11, 0b00))

    def test_rejects_missing_and_double_edges(self):
        with pytest.raises(ValueError, match="exactly one direction"):
            Tournament(("a", "b"), (0b00, 0b00))
        with pytest.raises(ValueError, match="exactly one direction"):
            Tournament(("a", "b"), (0b10, 0b01))

    @staticmethod
    def first_pair_error(names, rows):
        """The first pair (i, j), i < j, not oriented exactly one way, by a plain scan."""
        n = len(names)
        for i in range(n):
            for j in range(i + 1, n):
                if (rows[i] >> j & 1) == (rows[j] >> i & 1):
                    return (
                        f"pair ({names[i]}, {names[j]}) must be "
                        f"dominated in exactly one direction"
                    )
        return None

    def test_pair_errors_match_a_pair_scan(self):
        rng = random.Random(20240)
        checked = 0
        for n in range(1, 10):
            for _ in range(60):
                t = random_tournament(n, rng.getrandbits(32))
                rows = list(t.rows)
                for _ in range(rng.randint(1, 3) if n > 1 else 0):
                    i, j = rng.sample(range(n), 2)
                    if rng.getrandbits(1):  # both ways
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                    else:  # neither way
                        rows[i] &= ~(1 << j)
                        rows[j] &= ~(1 << i)
                want = self.first_pair_error(t.names, rows)
                if want is None:
                    assert Tournament(t.names, tuple(rows)).rows == tuple(rows)
                    continue
                with pytest.raises(ValueError) as info:
                    Tournament(t.names, tuple(rows))
                assert str(info.value) == want
                checked += 1
        assert checked > 400

    def test_row_errors_come_before_pair_errors(self):
        names = ("a", "b", "c")
        # (a, b) is dominated both ways, and a later row is bad on its own
        with pytest.raises(ValueError, match="^row 2 has bits outside 0..2$"):
            Tournament(names, (0b010, 0b001, 0b1000))
        with pytest.raises(ValueError, match="^alternative c dominates itself$"):
            Tournament(names, (0b000, 0b000, 0b100))

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Tournament(("a", "a"), (0b10, 0b00))
        with pytest.raises(ValueError, match="bad alternative name"):
            Tournament(("a", "b c"), (0b10, 0b00))
        with pytest.raises(ValueError, match="bad alternative name"):
            Tournament(("a", ""), (0b10, 0b00))

    @given(st.integers(1, 7), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_tournaments_are_complete(self, n, seed):
        t = random_tournament(n, seed)
        for i in range(n):
            assert not t.dominates(i, i)
            for j in range(i + 1, n):
                assert t.dominates(i, j) != t.dominates(j, i)


class TestRestrict:
    """The restriction oracle that referees reachability and Banks subsets."""

    def test_pair_restriction(self, fig1):
        r = restrict(fig1, idx(fig1, "a", "e"))
        assert r.names == ("a", "e")
        assert r.dominates(0, 1)

    def test_full_restriction_is_identity(self, fig1):
        assert restrict(fig1, range(5)) == fig1

    def test_three_cycle_restriction(self, fig1):
        r = restrict(fig1, idx(fig1, "a", "c", "d"))
        a, c, d = r.index("a"), r.index("c"), r.index("d")
        assert r.dominates(a, d) and r.dominates(d, c) and r.dominates(c, a)

    def test_errors(self, fig1):
        with pytest.raises(ValueError):
            restrict(fig1, [])
        with pytest.raises(IndexError):
            restrict(fig1, [9])


class TestDominators:
    """``Tournament.cols[a]``: the mask of alternatives that beat a."""

    def test_fig1_values(self, fig1):
        assert fig1.cols[fig1.index("a")] == 1 << fig1.index("c")
        assert fig1.cols[fig1.index("e")] == sum(1 << i for i in idx(fig1, "a", "c", "d"))

    def test_singleton(self):
        assert random_tournament(1, 5).cols == (0,)

    @given(st.integers(2, 7), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_partition(self, n, seed):
        t = random_tournament(n, seed)
        for a in range(n):
            above = t.cols[a]
            assert above == sum(1 << b for b in range(n) if t.rows[b] >> a & 1)
            assert above | 1 << a | t.rows[a] == t.full_mask
            assert not above & t.rows[a]


class TestCondorcet:
    def test_dominator_set_of_b(self, fig1):
        assert condorcet_winner(fig1, idx(fig1, "a", "e")) == fig1.index("a")

    def test_singleton(self, fig1):
        assert condorcet_winner(fig1, [3]) == 3

    def test_three_cycle_has_none(self, fig1):
        assert condorcet_winner(fig1, idx(fig1, "a", "c", "d")) is None


class TestTopCycle:
    def test_fig1_teq_relation(self, fig1):
        pairs = [("c", "a"), ("a", "b"), ("b", "c"), ("a", "d"), ("a", "e"), ("c", "e"), ("d", "e")]
        pairs = [(fig1.index(x), fig1.index(y)) for x, y in pairs]
        assert top_cycle(5, pairs) == set(idx(fig1, "a", "b", "c"))

    def test_condorcet_winner_is_singleton_top_cycle(self):
        for t in enumerate_tournaments(4):
            w = condorcet_winner(t, range(4))
            tc = _pykernel.top_cycle_masks(t.full_mask, t.cols)
            assert (w is not None) == (tc.bit_count() == 1)
            if w is not None:
                assert tc == 1 << w

    def test_three_cycle(self):
        assert top_cycle(3, [(0, 1), (1, 2), (2, 0)]) == {0, 1, 2}

    @given(st.integers(1, 7), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_nonempty(self, n, seed):
        t = random_tournament(n, seed)
        assert _pykernel.top_cycle_masks(t.full_mask, t.cols)

    def test_every_relation_on_four_nodes_matches_oracles(self):
        # all 4,096 loop-free edge sets on 4 nodes, each on all 15 carriers
        # (and both closures from every seed within the carrier); edges that
        # leave the carrier stay in in_edges and must be ignored
        edges = [(b, a) for b in range(4) for a in range(4) if a != b]
        for bits in range(1 << len(edges)):
            pairs = [e for k, e in enumerate(edges) if bits >> k & 1]
            in_edges = in_edges_of(4, pairs)
            for carrier in range(1, 16):
                x = frozenset(a for a in range(4) if carrier >> a & 1)
                tc = _pykernel.top_cycle_masks(carrier, in_edges)
                assert {a for a in range(4) if tc >> a & 1} == source_components(x, pairs)
                assert _pykernel.scc_count_masks(carrier, in_edges) == scc_count(x, pairs)
                reach = reached_from(x, pairs)
                seed = carrier
                while seed:  # every nonempty seed within the carrier
                    got = _pykernel.reach_masks(seed, carrier, in_edges)
                    want = set().union(*(reach[a] for a in x if seed >> a & 1))
                    assert {a for a in range(4) if got >> a & 1} == want
                    got = _pykernel.back_masks(seed, carrier, in_edges)
                    want = {a for a in x if any(seed >> b & 1 for b in reach[a])}
                    assert {a for a in range(4) if got >> a & 1} == want
                    seed = (seed - 1) & carrier


class TestIsTransitive:
    """The triple-by-triple transitivity oracle that checks Banks chains."""

    def test_fig1_examples(self, fig1):
        assert transitive_by_triples(fig1, idx(fig1, "a", "b", "d"))
        assert transitive_by_triples(fig1, idx(fig1, "b", "c"))
        assert transitive_by_triples(fig1, idx(fig1, "c", "a", "e"))
        assert not transitive_by_triples(fig1, idx(fig1, "a", "c", "d"))
        assert transitive_by_triples(fig1, [])

    @given(st.integers(0, 2**15 - 1), st.integers(0, 63))
    @settings(max_examples=80, deadline=None)
    def test_downward_monotone(self, bits, submask):
        t = tournament_from_bits(6, bits)
        subset = [i for i in range(6) if submask >> i & 1]
        if transitive_by_triples(t, subset):
            for drop in subset:
                assert transitive_by_triples(t, [i for i in subset if i != drop])


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_tournaments(1))) == 1
        three = list(enumerate_tournaments(3))
        assert len(three) == 8
        assert sum(not transitive_by_triples(t, range(3)) for t in three) == 2
        assert sum(1 for _ in enumerate_tournaments(5)) == 1024

    def test_bit_round_trip(self):
        for bits, t in enumerate(enumerate_tournaments(3)):
            pairs = combinations(range(3), 2)
            assert sum(t.dominates(i, j) << k for k, (i, j) in enumerate(pairs)) == bits

    def test_masks_from_bits_match_a_validated_tournament(self):
        # every pattern up to n = 5, and seeded ones at n = 6 and n = 7
        rng = random.Random(11)
        cases = [(n, bits) for n in range(1, 6) for bits in range(1 << n * (n - 1) // 2)]
        cases += [(n, rng.getrandbits(n * (n - 1) // 2)) for n in (6, 7) for _ in range(200)]
        for n, bits in cases:
            rows, cols = masks_from_bits(n, bits)
            t = Tournament(default_names(n), tuple(rows))  # validates the rows
            assert t.cols == tuple(cols)
            assert t.rows == tournament_from_bits(n, bits).rows

    @pytest.mark.parametrize("n", range(1, 6))
    def test_masks_in_bit_order_match_masks_from_bits(self, n):
        count = 1 << n * (n - 1) // 2
        # starts that are and are not powers of two, each run to the last pattern
        starts = {0, 1, count // 3, count - 1, 342, 684, 1023} & set(range(count))
        for lo in sorted(starts):
            got = [(list(rows), list(cols)) for rows, cols in masks_in_bit_order(n, lo, count)]
            assert got == [masks_from_bits(n, bits) for bits in range(lo, count)]

    def test_masks_in_bit_order_empty_range(self):
        assert list(masks_in_bit_order(4, 5, 5)) == []

    def test_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_tournaments(8))
        assert len(list(enumerate_tournaments(4))) == 64


class TestRandomTournament:
    def test_singleton(self):
        t = random_tournament(1, 99)
        assert t.names == ("a",) and t.rows == (0,)

    def test_deterministic(self):
        assert random_tournament(9, 7) == random_tournament(9, 7)

    def test_golden_snapshot(self, data_dir):
        golden = (data_dir / "random_5_42.txt").read_text()
        assert format_tournament(random_tournament(5, 42)) == golden


class TestTextFormat:
    def test_round_trip(self, fig1):
        assert parse_tournament(format_tournament(fig1)) == fig1

    def test_round_trip_enumerated(self):
        for t in enumerate_tournaments(4):
            assert parse_tournament(format_tournament(t)) == t

    def test_header_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_tournament("")
        with pytest.raises(ValueError, match="line 1"):
            parse_tournament("tourney 3\n")

    def test_matrix_errors(self):
        with pytest.raises(ValueError, match="line 4"):
            parse_tournament("tournament 2\na b\n-1\n9-\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_tournament("tournament 2\na b\n--\n--\n")
        with pytest.raises(ValueError, match="exactly one direction"):
            parse_tournament("tournament 2\na b\n-1\n1-\n")

    def test_name_count_error(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_tournament("tournament 2\na\n-1\n0-\n")

    def test_errors_name_the_line_at_fault(self):
        with pytest.raises(ValueError) as dup:
            parse_tournament("tournament 2\na a\n-1\n0-\n")
        assert str(dup.value) == "line 2: duplicate alternative name 'a'"
        # (c, d) is the only contradicted pair: lines 5 and 6 both say "beats"
        with pytest.raises(ValueError) as pair:
            parse_tournament("tournament 4\na b c d\n-111\n0-11\n00-1\n001-\n")
        assert str(pair.value) == "line 6: pair (c, d) must be dominated in exactly one direction"

    def test_text_after_the_matrix(self):
        # two concatenated tournaments must not silently solve the first
        with pytest.raises(ValueError) as extra:
            parse_tournament("tournament 2\na b\n-1\n0-\ngarbage here\n")
        assert str(extra.value) == "line 5: unexpected text after the matrix"
        with pytest.raises(ValueError, match="^line 6: "):
            parse_tournament("tournament 2\na b\n-1\n0-\n\ntournament 1\nz\n-\n")
        t = parse_tournament("tournament 2\na b\n-1\n0-\n\n  \n")
        assert t.names == ("a", "b") and t.rows == (0b10, 0)

    @pytest.mark.parametrize("matrix", ["-1\n1-\n", "-1\nx-\n"])
    def test_duplicate_name_wins_over_later_matrix_error(self, matrix):
        with pytest.raises(ValueError) as dup:
            parse_tournament("tournament 2\na a\n" + matrix)
        assert str(dup.value) == "line 2: duplicate alternative name 'a'"


def test_public_names_resolve():
    # a stale __all__ entry breaks `from tsol import *` but not `import tsol`
    import tsol

    namespace: dict = {}
    exec("from tsol import *", namespace)
    for name in tsol.__all__:
        assert namespace[name] is getattr(tsol, name)
