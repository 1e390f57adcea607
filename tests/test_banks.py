from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsol.banks import banks_member, banks_set
from tsol.core import enumerate_tournaments, random_tournament, tournament_from_bits
from tsol.reductions import banks_gadget, decision_node

from oracles import (
    banks_chain_oracle,
    banks_oracle,
    condorcet_winner,
    random_cnf,
    restrict,
    top_extenders,
    transitive_by_triples,
)


def idx(t, *names):
    return tuple(t.index(n) for n in names)


def decreasing(t, chain):
    """Each chain element beats every later one."""
    return all(t.dominates(a, b) for a, b in combinations(chain, 2))


class TestIsTopExtendable:
    """The ``top_extenders`` oracle that the witness-chain tests rely on."""

    def test_extendable_chain(self, fig1):
        # a beats both e and b, so (e, b) extends upward
        assert top_extenders(fig1, idx(fig1, "e", "b")) == {fig1.index("a")}

    def test_maximal_chain(self, fig1):
        assert top_extenders(fig1, idx(fig1, "d", "c", "e")) == set()

    def test_condorcet_winner_chain(self):
        t = tournament_from_bits(4, 0b111111)  # total order, 0 on top
        assert top_extenders(t, (0,)) == set()


class TestBanksMember:
    def test_e_is_not_a_member(self, fig1):
        assert banks_member(fig1, fig1.index("e")) is None

    def test_d_witness(self, fig1):
        chain = banks_member(fig1, fig1.index("d"))
        assert chain is not None
        assert chain[0] == fig1.index("d")
        assert transitive_by_triples(fig1, chain)
        assert decreasing(fig1, chain)
        assert top_extenders(fig1, chain) == set()

    def test_three_cycle_everybody_wins(self):
        t = tournament_from_bits(3, 0b101)  # a>b, b>c, c>a (cyclic)
        assert not transitive_by_triples(t, range(3))
        for a in range(3):
            assert banks_member(t, a) is not None

    def test_fig1_chains(self, fig1):
        # the DFS tries the candidate that beats most of the pool first
        want = {"a": "a b", "b": "b d c", "c": "c a", "d": "d c e", "e": None}
        for a, name in enumerate(fig1.names):
            chain = banks_member(fig1, a)
            got = None if chain is None else " ".join(fig1.names[i] for i in chain)
            assert got == want[name]

    def test_gadget_decision_chain(self):
        layout = banks_gadget(random_cnf(Random(5), 3))
        t = layout.tournament
        chain = banks_member(t, decision_node(layout))
        assert " ".join(t.names[i] for i in chain) == "d x1_2 x1_3 y1 x2_1 x2_2 y2 x3_2"

    def test_chains_match_the_ordered_oracle(self):
        # the same first chain, or None, for every alternative up to n = 5
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                for a in range(n):
                    assert banks_member(t, a) == banks_chain_oracle(t, a)

    def test_negative_index_rejected(self, fig1):
        with pytest.raises(ValueError, match="^alternative -1 out of range for 5 alternatives$"):
            banks_member(fig1, -1)

    def test_index_past_the_end_rejected(self, fig1):
        with pytest.raises(ValueError, match="^alternative 5 out of range for 5 alternatives$"):
            banks_member(fig1, 5)


class TestBanksSet:
    def test_fig1(self, fig1):
        assert banks_set(fig1) == set(idx(fig1, "a", "b", "c", "d"))

    def test_singleton(self, fig1):
        sub = restrict(fig1, [2])
        assert {sub.names[i] for i in banks_set(sub)} == {fig1.names[2]}

    def test_transitive_tournament_top_only(self):
        t = tournament_from_bits(5, (1 << 10) - 1)  # total order, 0 on top
        assert banks_set(t) == {0}

    def test_oracle_equivalence_small(self):
        for n in (1, 2, 3, 4):
            for t in enumerate_tournaments(n):
                assert banks_set(t) == banks_oracle(t)

    def test_oracle_equivalence_on_subsets(self, fig1):
        # the Banks set of a restriction, against the oracle on that subset of fig1
        for sub in ([0, 1, 2], [1, 3, 4], [0, 2, 3, 4]):
            restricted = restrict(fig1, sub)
            by_restriction = {restricted.names[i] for i in banks_set(restricted)}
            assert by_restriction == {fig1.names[i] for i in banks_oracle(fig1, sub)}

    @given(st.integers(0, 2**32), st.permutations(list(range(6))))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, seed, perm):
        t = random_tournament(6, seed)
        names = tuple(t.names[perm.index(i)] for i in range(6))
        rows = [0] * 6
        for i in range(6):
            for j in range(6):
                if i != j and t.dominates(perm.index(i), perm.index(j)):
                    rows[i] |= 1 << j
        shuffled = type(t)(names, tuple(rows))
        assert {t.names[i] for i in banks_set(t)} == {
            shuffled.names[i] for i in banks_set(shuffled)
        }

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_witness_contract(self, seed):
        t = random_tournament(7, seed)
        members = banks_set(t)
        assert members, "Banks set is never empty"
        for a in range(7):
            chain = banks_member(t, a)
            assert (chain is not None) == (a in members)
            if chain is not None:
                assert chain[0] == a
                assert transitive_by_triples(t, chain)
                assert decreasing(t, chain)
                assert top_extenders(t, chain) == set()

    def test_contains_condorcet_winner(self):
        for t in enumerate_tournaments(4):
            w = condorcet_winner(t, range(4))
            if w is not None:
                assert banks_set(t) == {w}

    def test_restriction_consistency(self, fig1):
        sub = idx(fig1, "a", "b", "c", "e")
        restricted = restrict(fig1, sub)
        by_subset = {fig1.names[i] for i in banks_oracle(fig1, sub)}
        by_restriction = {restricted.names[i] for i in banks_set(restricted)}
        assert by_subset == by_restriction
