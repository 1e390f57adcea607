from random import Random

import pytest

import tsol.verification
from tsol.reductions import Cnf, Literal, cnf, decision_node, teq_gadget
from tsol.verification import (
    SweepReport,
    check_chain_reachability,
    check_proof_trace,
    choice_set,
    consistent_choice_set,
    iter_consistent_choice_sets,
    parse_sweep_report,
    sample_chain_reachability,
    sat_brute_force,
    sweep,
    verify_banks_reduction,
    verify_teq_reduction,
)

from oracles import (
    all_formulas_m2,
    choice_sets_oracle,
    evaluate,
    flip_edges,
    nine_clauses,
    random_cnf,
    reachability_oracle,
    unsat_eight_clauses,
)


class TestSatOracle:
    def test_fig_formula_satisfiable(self, fig_cnf):
        model = sat_brute_force(fig_cnf)
        assert model is not None
        assert evaluate(fig_cnf, model)

    def test_eight_clause_unsat(self):
        assert sat_brute_force(unsat_eight_clauses()) is None

    def test_single_clause(self):
        assert sat_brute_force(cnf(("p", "q", "r"))) is not None

    def test_lexicographic_first_model(self):
        # all-False already satisfies a fully negated clause
        model = sat_brute_force(cnf(("-p", "-q", "-r")))
        assert model == {"p": False, "q": False, "r": False}

    def test_variable_cap(self):
        clauses = tuple(
            (Literal(f"w{3 * i}"), Literal(f"w{3 * i + 1}"), Literal(f"w{3 * i + 2}"))
            for i in range(9)
        )
        with pytest.raises(ValueError, match="cap"):
            sat_brute_force(Cnf(clauses))


class TestChoiceSets:
    def test_fig_formula(self, fig_cnf):
        c = consistent_choice_set(fig_cnf)
        assert c is not None and c.consistent

    def test_eight_clause_has_none(self):
        assert consistent_choice_set(unsat_eight_clauses()) is None

    def test_single_clause(self):
        assert consistent_choice_set(cnf(("p", "q", "r"))).picks == (0,)

    def test_validation(self, fig_cnf):
        with pytest.raises(ValueError):
            choice_set(fig_cnf, (0, 1))
        with pytest.raises(ValueError):
            choice_set(fig_cnf, (0, 1, 5))

    def test_inconsistent_flag(self):
        f = cnf(("p", "q", "r"), ("-p", "-q", "-r"))
        assert not choice_set(f, (0, 0)).consistent
        assert choice_set(f, (0, 1)).consistent

    def test_agrees_with_assignment_oracle(self):
        rng = Random(7)
        for _ in range(200):
            f = random_cnf(rng, rng.randint(1, 4))
            assert (sat_brute_force(f) is None) == (consistent_choice_set(f) is None)


class TestPrunedChoiceSearch:
    """The depth-first search against the unpruned ``product`` enumeration."""

    def test_matches_oracle_on_all_two_clause_formulas(self):
        for f in all_formulas_m2():
            assert [c.picks for c in iter_consistent_choice_sets(f)] == choice_sets_oracle(f)

    def test_matches_oracle_on_seeded_formulas(self):
        rng = Random(20241)
        for m in range(3, 7):
            for _ in range(40):
                f = random_cnf(rng, m)
                got = list(iter_consistent_choice_sets(f))
                assert all(c.consistent for c in got)
                assert [c.picks for c in got] == choice_sets_oracle(f)

    def test_sixteen_clause_satisfiable_formula(self):
        # satisfiable, but its first consistent set lies deep in the 3^16 pick order
        rng = Random(20240)
        for m in (1, 2, 3, 4, 6, 8, 12):
            random_cnf(rng, m)
        f = random_cnf(rng, 16)
        c = consistent_choice_set(f)
        assert c is not None and c.consistent
        assert choice_set(f, c.picks).consistent

    def test_cap(self):
        with pytest.raises(ValueError, match="choice-set cap"):
            consistent_choice_set(random_cnf(Random(3), 17))


class TestBanksReduction:
    def test_fig_formula(self, fig_cnf):
        v = verify_banks_reduction(fig_cnf)
        assert (v.sat, v.member, v.verdict) == (True, True, "AGREE")
        assert v.witness is not None and v.witness[0] == "d"

    def test_unsat(self):
        v = verify_banks_reduction(unsat_eight_clauses())
        assert (v.sat, v.member, v.verdict) == (False, False, "AGREE")
        assert v.witness is None

    def test_single_clause_witness_shape(self):
        v = verify_banks_reduction(cnf(("p", "q", "r")))
        assert v.verdict == "AGREE"
        assert len(v.witness) == 2
        assert v.witness[0] == "d"
        assert v.witness[1].startswith("x")


class TestTeqReduction:
    def test_single_clause(self):
        v = verify_teq_reduction(cnf(("p", "q", "r")))
        assert (v.sat, v.member, v.verdict, v.exact) == (True, True, "AGREE", True)

    def test_two_clauses(self):
        v = verify_teq_reduction(cnf(("p", "q", "r"), ("-p", "-q", "s")))
        assert v.verdict == "AGREE" and v.exact

    def test_three_clauses_exact(self, fig_cnf):
        v = verify_teq_reduction(fig_cnf)
        assert (v.sat, v.member, v.verdict, v.exact) == (True, True, "AGREE", True)

    def test_nine_clauses_unverified(self):
        v = verify_teq_reduction(nine_clauses())
        assert v.verdict == "UNVERIFIED"
        assert not v.exact
        assert v.sat and v.member


class TestChainReachability:
    def test_decision_only_subset(self, fig_cnf):
        layout = teq_gadget(cnf(("p", "q", "r")))
        res = check_chain_reachability(layout, [0])
        assert res.ok and res.violations == ()

    def test_full_m1_layout(self):
        layout = teq_gadget(cnf(("p", "q", "r")))
        assert check_chain_reachability(layout, range(5)).ok

    def test_sampled_m2(self):
        layout = teq_gadget(cnf(("p", "q", "r"), ("-q", "r", "s")))
        checked, failures = sample_chain_reachability(layout, 100, seed=3)
        assert checked == 100
        assert failures == []

    def test_requires_decision_node(self, fig_cnf):
        layout = teq_gadget(cnf(("p", "q", "r")))
        with pytest.raises(ValueError, match="decision"):
            check_chain_reachability(layout, [1, 2])

    def test_flipped_gadgets_match_oracle(self):
        """On gadgets with two reversed edges, single checks and seeded
        samples report exactly the oracle's unreached elements."""
        rng = Random(7)
        failing = 0
        for _ in range(40):
            layout = teq_gadget(random_cnf(rng, rng.choice((1, 2))))
            n = layout.tournament.n
            # one edge between a chain node and a level element, one anywhere
            level = rng.choice([a for a in range(n) if a not in layout.chain])
            flips = [(rng.choice(layout.chain), level), rng.sample(range(n), 2)]
            layout = flip_edges(layout, flips)
            d = decision_node(layout)
            seed = rng.getrandbits(32)
            subsets = Random(seed)
            expected = []
            for _ in range(10):
                b = {i for i in range(n) if subsets.getrandbits(1)} | {d}
                want = reachability_oracle(layout, b)
                assert check_chain_reachability(layout, b).violations == want
                if want:
                    expected.append((frozenset(b), want))
            _, failures = sample_chain_reachability(layout, 10, seed)
            assert [(b, res.violations) for b, res in failures] == expected
            assert all(not res.ok for _, res in failures)
            failing += len(expected)
        assert failing >= 20


class TestProofTrace:
    def test_m1_each_pick(self):
        f = cnf(("p", "q", "r"))
        for pick in range(3):
            res = check_proof_trace(f, choice_set(f, (pick,)))
            assert res.ok, res.failures
            assert res.levels == 2

    def test_m2_all_consistent_choices(self):
        f = cnf(("p", "q", "r"), ("-p", "-q", "s"))
        count = 0
        for w in iter_consistent_choice_sets(f):
            res = check_proof_trace(f, w)
            assert res.ok, res.failures
            assert res.levels == 6
            count += 1
        assert count == 7  # 9 pairs minus the p/-p and q/-q conflicts

    def test_rejects_inconsistent_choice(self):
        f = cnf(("p", "q", "r"), ("-p", "-q", "-r"))
        with pytest.raises(ValueError, match="inconsistent"):
            check_proof_trace(f, choice_set(f, (0, 0)))

    def test_rejects_above_cap(self):
        f = nine_clauses()
        with pytest.raises(ValueError, match="capped"):
            check_proof_trace(f, consistent_choice_set(f))

    @staticmethod
    def flipped_trace(monkeypatch, x, y):
        f = cnf(("p", "q", "r"), ("-p", "-q", "s"))
        layout = teq_gadget(f)
        t = layout.tournament
        bad = flip_edges(layout, [(t.index(x), t.index(y))])
        monkeypatch.setattr(tsol.verification, "teq_gadget", lambda _: bad)
        return check_proof_trace(f, choice_set(f, (0, 1)))

    def test_reports_broken_step(self, monkeypatch):
        res = self.flipped_trace(monkeypatch, "c1", "y1")
        assert not res.ok and res.levels == 6
        assert res.failures == (
            "chain node c1 wrong in tower 2",
            "step relation misses c1 => c0 at level 2",
            "step relation misses x1_1 => c1 at level 2",
        )

    def test_reports_empty_level(self, monkeypatch):
        res = self.flipped_trace(monkeypatch, "d", "x1_1")
        assert not res.ok and res.levels == 6
        assert res.failures == ("chain node c0 wrong in tower 1", "tower level 1 is empty")


class TestSweep:
    def test_n3_exhaustive(self):
        report = sweep([3])
        assert report.instances == 8
        assert report.total_failures == 0
        assert "8 instances, 0 failures" in report.serialize()

    def test_n1_trivial(self):
        report = sweep([1])
        assert report.instances == 1
        assert report.total_failures == 0

    def test_worker_count_does_not_change_bytes(self):
        one = sweep([4], workers=1)
        three = sweep([4], workers=3)
        assert one.serialize() == three.serialize()

    def test_random_mode_deterministic(self):
        a = sweep([8], mode="random", samples=20, seed=5)
        b = sweep([8], mode="random", samples=20, seed=5, workers=2)
        assert a.serialize() == b.serialize()
        assert a.instances == 20

    def test_check_subset_selection(self):
        report = sweep([3], checks=("nonempty", "condorcet"))
        assert set(report.passes) == {"nonempty", "condorcet"}

    def test_input_validation(self):
        with pytest.raises(ValueError, match="unknown check"):
            sweep([3], checks=("bogus",))
        with pytest.raises(ValueError, match="capped"):
            sweep([8])
        with pytest.raises(ValueError, match="sample count"):
            sweep([3], mode="random")
        with pytest.raises(ValueError, match="workers"):
            sweep([3], workers=0)

    def test_serialization_shape_with_failures(self):
        report = SweepReport(
            ns=(5,),
            mode="exhaustive",
            checks=("nonempty",),
            seed=0,
            samples=0,
            workers=1,
            instances=1024,
            passes={"nonempty": 1023},
            failures={"nonempty": 1},
            counterexamples=("nonempty n=5 bits=17",),
            duration_s=0.5,
        )
        text = report.serialize()
        assert "FAIL nonempty n=5 bits=17" in text
        assert text.endswith("1024 instances, 1 failures\n")
        assert "duration" not in text

    def test_serialize_round_trip(self):
        for report in (sweep([3]), sweep([6, 4], mode="random", samples=7, seed=2)):
            back = parse_sweep_report(report.serialize())
            assert back.serialize() == report.serialize()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="header"):
            parse_sweep_report("not a report\n")
        with pytest.raises(ValueError, match="unrecognized"):
            parse_sweep_report(
                "sweep ns=3 mode=exhaustive checks=nonempty seed=0 samples=0\n"
                "check nonempty: pass=8 fail=0\nwat\n8 instances, 0 failures\n"
            )
