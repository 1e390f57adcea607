from dataclasses import replace
from itertools import combinations
from random import Random

import pytest

from tsol.core import Tournament
from tsol.reductions import (
    Cnf,
    Literal,
    banks_gadget,
    cnf,
    decision_node,
    layout_labels,
    layout_to_dot,
    lit,
    parse_dimacs,
    teq_gadget,
    validate_layout,
)

from oracles import all_formulas_m2, format_dimacs, random_cnf


class TestLiterals:
    def test_parse_and_print(self):
        assert lit("p") == Literal("p", False)
        assert lit("-p") == lit("~p") == Literal("p", True)
        assert str(lit("-q")) == "-q"

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            lit("")
        with pytest.raises(ValueError):
            lit("a b")


class TestCnfValidation:
    def test_ok(self, fig_cnf):
        assert fig_cnf.m == 3
        assert fig_cnf.variables == ("p", "s", "q", "r")

    def test_needs_clauses(self):
        with pytest.raises(ValueError):
            Cnf(())

    def test_arity(self):
        with pytest.raises(ValueError, match="clause 1"):
            Cnf(((lit("p"), lit("q")),))

    def test_duplicate_literal(self):
        with pytest.raises(ValueError, match="duplicate"):
            cnf(("p", "p", "q"))

    def test_complementary_pair(self):
        with pytest.raises(ValueError, match="complementary"):
            cnf(("p", "-p", "q"))


class TestDimacs:
    def test_fig_formula(self, data_dir, fig_cnf):
        f = parse_dimacs((data_dir / "fig.cnf").read_text())
        assert f.m == 3
        assert len(f.variables) == 4
        # same complement structure as the named version
        assert [
            [l.negated for l in clause] for clause in f.clauses
        ] == [[l.negated for l in clause] for clause in fig_cnf.clauses]

    def test_round_trip(self, fig_cnf):
        assert parse_dimacs(format_dimacs(fig_cnf)).m == 3

    def test_complementary_rejected(self):
        with pytest.raises(ValueError, match="clause 1.*complementary"):
            parse_dimacs("p cnf 2 1\n1 -1 2 0\n")

    def test_arity_rejected(self):
        with pytest.raises(ValueError, match="clause 1.*3 literals"):
            parse_dimacs("p cnf 2 1\n1 2 0\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="clause 1.*duplicate"):
            parse_dimacs("p cnf 2 1\n1 1 2 0\n")

    def test_names_clause_index(self):
        with pytest.raises(ValueError, match="clause 2"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n1 2 0\n")

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            parse_dimacs("1 2 3 0\n")

    def test_clause_count_checked(self):
        with pytest.raises(ValueError, match="expected 2 clauses"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_missing_terminator(self):
        with pytest.raises(ValueError, match="terminating 0"):
            parse_dimacs("p cnf 3 1\n1 2 3\n")

    def test_variable_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            parse_dimacs("p cnf 2 1\n1 2 3 0\n")

    def test_comments_and_multiline_clauses(self):
        f = parse_dimacs("c hi\np cnf 3 1\n1 2\n3 0\n")
        assert f.m == 1


class TestBanksGadget:
    def test_fig_size(self, fig_cnf):
        layout = banks_gadget(fig_cnf)
        assert layout.tournament.n == 17
        assert layout.size == 5
        assert validate_layout(layout) == []

    def test_complement_back_edges(self, fig_cnf):
        layout = banks_gadget(fig_cnf)
        t = layout.tournament
        # clause-3 p beats clause-1 -p; clause-2 p beats clause-1 -p;
        # clause-3 -r beats clause-2 r
        assert t.dominates(t.index("x3_1"), t.index("x1_1"))
        assert t.dominates(t.index("x2_1"), t.index("x1_1"))
        assert t.dominates(t.index("x3_3"), t.index("x2_3"))
        # non-complementary literal pairs point downward
        assert t.dominates(t.index("x1_2"), t.index("x2_2"))
        assert t.dominates(t.index("x1_3"), t.index("x3_2"))

    def test_clause_triples_cycle(self, fig_cnf):
        t = banks_gadget(fig_cnf).tournament
        for i in (1, 2, 3):
            a, b, c = (t.index(f"x{i}_{k}") for k in (1, 2, 3))
            assert t.dominates(a, b) and t.dominates(b, c) and t.dominates(c, a)

    def test_sizes_formula(self):
        base = cnf(("p", "q", "r"))
        for m in range(1, 9):
            f = Cnf(base.clauses * m)
            layout = banks_gadget(f)
            assert layout.tournament.n == 6 * m - 1
            assert validate_layout(layout) == []

    def test_chain_and_decision(self, fig_cnf):
        layout = banks_gadget(fig_cnf)
        t = layout.tournament
        d = decision_node(layout)
        assert t.names[d] == "d"
        assert t.dominates(t.index("c3"), t.index("c1"))
        assert t.dominates(t.index("c1"), d)
        # d beats every level element
        for lvl in layout.levels:
            for u in lvl:
                assert t.dominates(d, u)

    def test_deterministic_bytes(self, fig_cnf):
        from tsol.core import format_tournament

        a = format_tournament(banks_gadget(fig_cnf).tournament)
        b = format_tournament(banks_gadget(fig_cnf).tournament)
        assert a == b


class TestTeqGadget:
    def test_fig_size(self, fig_cnf):
        layout = teq_gadget(fig_cnf)
        assert layout.tournament.n == 29
        assert layout.size == 9
        assert validate_layout(layout) == []

    def test_blocker_edges(self, fig_cnf):
        t = teq_gadget(fig_cnf).tournament
        # a literal beats exactly its own blocker
        assert t.dominates(t.index("x1_1"), t.index("z1_1"))
        assert t.dominates(t.index("z1_1"), t.index("x1_2"))
        assert t.dominates(t.index("z1_1"), t.index("x1_3"))
        assert t.dominates(t.index("x2_2"), t.index("z2_2"))
        # blockers beat later clause literals, lose to earlier ones
        assert t.dominates(t.index("z1_2"), t.index("x2_1"))
        assert t.dominates(t.index("x1_1"), t.index("z2_1"))
        # blocker triples point downward between themselves
        assert t.dominates(t.index("z1_1"), t.index("z2_3"))

    def test_literal_edges_match_banks_rule(self, fig_cnf):
        t = teq_gadget(fig_cnf).tournament
        assert t.dominates(t.index("x3_1"), t.index("x1_1"))
        assert t.dominates(t.index("x3_3"), t.index("x2_3"))
        assert t.dominates(t.index("x2_1"), t.index("x1_1"))

    def test_m1_layout(self):
        layout = teq_gadget(cnf(("p", "q", "r")))
        t = layout.tournament
        assert layout.size == 1
        assert t.n == 5
        assert t.names == ("d", "c1", "x1_1", "x1_2", "x1_3")
        assert validate_layout(layout) == []

    def test_sizes_formula(self):
        base = cnf(("p", "q", "r"))
        for m in range(1, 9):
            f = Cnf(base.clauses * m)
            layout = teq_gadget(f)
            assert layout.tournament.n == 12 * m - 7
            assert validate_layout(layout) == []


class TestValidateLayout:
    def test_flipped_chain_edge_detected(self, fig_cnf):
        layout = banks_gadget(fig_cnf)
        t = layout.tournament
        i, j = t.index("c3"), t.index("c1")
        rows = list(t.rows)
        rows[i] &= ~(1 << j)
        rows[j] |= 1 << i
        broken = replace(layout, tournament=Tournament(t.names, tuple(rows)))
        violations = validate_layout(broken)
        assert len(violations) == 1
        assert violations[0].rule == "chain-order"
        assert set(violations[0].members) == {"c3", "c1"}

    def test_flipped_separator_edge_detected(self, fig_cnf):
        layout = banks_gadget(fig_cnf)
        t = layout.tournament
        i, j = t.index("x1_1"), t.index("y1")
        rows = list(t.rows)
        rows[i] &= ~(1 << j)
        rows[j] |= 1 << i
        broken = replace(layout, tournament=Tournament(t.names, tuple(rows)))
        violations = validate_layout(broken)
        assert [v.rule for v in violations] == ["separator-order"]


def _later_wins(f, stride, a, p, b, q):
    """Whether element q of odd level b beats element p of odd level a < b.

    Levels and positions are 0-based: clause i sits on level ``stride * i``
    and, in the TEQ gadget (stride 4), its blocker on level ``stride * i + 2``.
    """
    if a % stride == 0 and b % stride == 0:
        x = f.clauses[a // stride][p]
        return f.clauses[b // stride][q] == Literal(x.variable, not x.negated)
    if stride == 4 and a % 4 == 0 and b == a + 2:
        return p != q  # a literal beats only its own blocker
    return False


def _seeded_formulas():
    rng = Random(20240)
    return [random_cnf(rng, m) for m in range(3, 9) for _ in range(12)]


class TestOddLevelPairs:
    """Every pair of elements on two different odd levels, which
    ``validate_layout`` leaves unchecked."""

    @pytest.mark.parametrize("gadget, stride", [(banks_gadget, 2), (teq_gadget, 4)])
    @pytest.mark.parametrize("formulas", [all_formulas_m2, _seeded_formulas])
    def test_rule(self, gadget, stride, formulas):
        for f in formulas():
            layout = gadget(f)
            t = layout.tournament
            assert len(layout.levels) == stride * (f.m - 1) + 1
            for a, b in combinations(range(0, len(layout.levels), 2), 2):
                for p, u in enumerate(layout.levels[a]):
                    for q, v in enumerate(layout.levels[b]):
                        want = _later_wins(f, stride, a, p, b, q)
                        assert t.dominates(v, u) == want, (f, t.names[u], t.names[v])
                        assert t.dominates(u, v) != want


class TestExports:
    def test_labels(self, fig_cnf):
        layout = banks_gadget(fig_cnf)
        lines = layout_labels(layout).splitlines()
        assert len(lines) == 17
        assert lines[0] == "d\tdecision"
        assert lines[1] == "c1\tchain 1"
        assert "x1_1\tliteral 1 1 -p" in lines
        assert "y1\tseparator 1" in lines

    def test_teq_labels_have_blockers(self, fig_cnf):
        lines = layout_labels(teq_gadget(fig_cnf)).splitlines()
        assert "z1_1\tblocker 1 1" in lines

    def test_dot_clusters(self, fig_cnf):
        dot = layout_to_dot(banks_gadget(fig_cnf))
        assert "subgraph cluster_chain" in dot
        assert "subgraph cluster_level_5" in dot
        assert dot.count("->") == 17 * 16 // 2
