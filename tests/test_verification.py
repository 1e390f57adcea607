from itertools import product
from random import Random

import pytest

import tsol.verification
from tsol import _pykernel, cli
from tsol.reductions import Cnf, Literal, cnf, decision_node, teq_gadget
from tsol.verification import (
    SweepReport,
    check_proof_traces,
    consistent_choice_set,
    iter_consistent_choice_sets,
    sample_chain_reachability,
    sat_brute_force,
    sweep,
    verify_banks_reduction,
    verify_teq_reduction,
)

from oracles import (
    FOUR_VARS,
    all_formulas_m2,
    choice_sets_oracle,
    evaluate,
    flip_edges,
    format_dimacs,
    is_consistent,
    nine_clauses,
    random_cnf,
    random_unsat_cnf,
    reachability_oracle,
    relabel,
    unsat_eight_clauses,
    unsat_q4_matchings,
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
        assert c is not None and is_consistent(fig_cnf, c)

    def test_eight_clause_has_none(self):
        assert consistent_choice_set(unsat_eight_clauses()) is None

    def test_single_clause(self):
        assert consistent_choice_set(cnf(("p", "q", "r"))) == (0,)

    def test_inconsistent_flag(self):
        f = cnf(("p", "q", "r"), ("-p", "-q", "-r"))
        found = list(iter_consistent_choice_sets(f))
        assert (0, 0) not in found
        assert (0, 1) in found

    def test_agrees_with_assignment_oracle(self):
        rng = Random(7)
        for _ in range(200):
            f = random_cnf(rng, rng.randint(1, 4))
            assert (sat_brute_force(f) is None) == (consistent_choice_set(f) is None)


class TestPrunedChoiceSearch:
    """The depth-first search against the unpruned ``product`` enumeration."""

    def test_matches_oracle_on_all_two_clause_formulas(self):
        for f in all_formulas_m2():
            assert list(iter_consistent_choice_sets(f)) == choice_sets_oracle(f)

    def test_matches_oracle_on_seeded_formulas(self):
        rng = Random(20241)
        for m in range(3, 7):
            for _ in range(40):
                f = random_cnf(rng, m)
                assert list(iter_consistent_choice_sets(f)) == choice_sets_oracle(f)

    def test_sixteen_clause_satisfiable_formula(self):
        # satisfiable, but its first consistent set lies deep in the 3^16 pick order
        rng = Random(20240)
        for m in (1, 2, 3, 4, 6, 8, 12):
            random_cnf(rng, m)
        f = random_cnf(rng, 16)
        c = consistent_choice_set(f)
        assert c is not None and is_consistent(f, c)

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
        assert (v.sat, v.member, v.verdict) == (True, True, "AGREE")

    def test_two_clauses(self):
        v = verify_teq_reduction(cnf(("p", "q", "r"), ("-p", "-q", "s")))
        assert v.verdict == "AGREE"

    def test_three_clauses_exact(self, fig_cnf):
        v = verify_teq_reduction(fig_cnf)
        assert (v.sat, v.member, v.verdict) == (True, True, "AGREE")

    def test_nine_clauses_exact(self):
        v = verify_teq_reduction(nine_clauses())
        assert (v.sat, v.member, v.verdict) == (True, True, "AGREE")

    def test_unsat_nine_clauses_exact(self):
        # the canonical eight plus one clause: d must leave the exact TEQ
        f = Cnf(unsat_eight_clauses().clauses + cnf(("p", "q", "s")).clauses)
        v = verify_teq_reduction(f)
        assert (v.sat, v.member, v.verdict) == (False, False, "AGREE")

    @pytest.mark.parametrize("verify", [verify_banks_reduction, verify_teq_reduction])
    def test_clause_cap_checked_before_either_oracle(self, monkeypatch, verify):
        def no_oracle(_):
            raise AssertionError("an oracle ran before the clause cap was checked")

        monkeypatch.setattr(tsol.verification, "sat_brute_force", no_oracle)
        monkeypatch.setattr(tsol.verification, "consistent_choice_set", no_oracle)
        with pytest.raises(ValueError) as info:
            verify(random_cnf(Random(3), 17))
        assert str(info.value) == "17 clauses exceed the choice-set cap 16"


class TestUnsatisfiableSide:
    """The theorem's other half: d leaves both gadgets' choice sets on
    unsatisfiable formulas, here every 8-clause 3CNF over four variables."""

    def test_q4_matchings(self):
        formulas = unsat_q4_matchings()
        assert len(formulas) == 272
        assert len({frozenset(f.clauses) for f in formulas}) == 272
        for f in formulas:
            assert f.m == 8
            for values in product((False, True), repeat=len(FOUR_VARS)):
                assert not evaluate(f, dict(zip(FOUR_VARS, values)))
        # one per variable triple: the canonical formula on that triple
        assert sorted(f.variables for f in formulas if len(f.variables) == 3) == [
            ("p", "q", "r"), ("p", "q", "s"), ("p", "r", "s"), ("q", "r", "s")
        ]

    def test_banks_on_every_matching(self):
        for f in unsat_q4_matchings():
            v = verify_banks_reduction(f)
            assert (v.sat, v.member, v.verdict) == (False, False, "AGREE")

    def test_teq_on_seeded_matchings_and_clause_orders(self, capsys, tmp_path):
        rng = Random(22)
        formulas = rng.sample(unsat_q4_matchings(), 8)
        for _ in range(4):
            clauses = list(unsat_eight_clauses().clauses)
            rng.shuffle(clauses)
            formulas.append(Cnf(tuple(clauses)))
        self.verify_teq_unsat(capsys, tmp_path, formulas)

    def test_banks_on_every_relabelled_matching(self):
        # literal and clause orders, sign flips and variable names all change
        rng = Random(23)
        for f in unsat_q4_matchings():
            v = verify_banks_reduction(relabel(rng, f))
            assert (v.sat, v.member, v.verdict) == (False, False, "AGREE")

    def test_teq_on_seeded_relabelled_matchings(self, capsys, tmp_path):
        rng = Random(24)
        formulas = [relabel(rng, f) for f in rng.sample(unsat_q4_matchings(), 6)]
        self.verify_teq_unsat(capsys, tmp_path, formulas)

    def test_teq_on_random_unsatisfiable_formulas(self, capsys, tmp_path):
        rng = Random(25)
        formulas = [random_unsat_cnf(rng, rng.randint(10, 12)) for _ in range(2)]
        formulas.append(random_unsat_cnf(Random(1), 13))
        formulas.append(random_unsat_cnf(Random(1), 14))
        assert [f.m for f in formulas] == [11, 12, 13, 14]
        self.verify_teq_unsat(capsys, tmp_path, formulas)

    @staticmethod
    def verify_teq_unsat(capsys, tmp_path, formulas):
        path = tmp_path / "f.cnf"
        for f in formulas:
            path.write_text(format_dimacs(f))
            assert cli.main(["verify", "--input", str(path), "--target", "teq"]) == 0
            assert capsys.readouterr().out == "SAT=false MEMBER=false VERDICT=AGREE\n"
            assert check_proof_traces(f) == []


class TestChainReachability:
    def test_sampled_m2(self):
        layout = teq_gadget(cnf(("p", "q", "r"), ("-q", "r", "s")))
        checked, failures = sample_chain_reachability(layout, 100, seed=3)
        assert checked == 100
        assert failures == []

    def test_rejects_negative_sample_count(self):
        layout = teq_gadget(cnf(("p", "q", "r")))
        with pytest.raises(ValueError, match="nonnegative"):
            sample_chain_reachability(layout, -5, seed=3)

    def test_flipped_gadgets_match_oracle(self):
        """On gadgets with two reversed edges, seeded samples report exactly
        the subsets on which the oracle finds unreached elements, with those
        elements' names."""
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
                if want:
                    expected.append((frozenset(b), want))
            assert sample_chain_reachability(layout, 10, seed) == (10, expected)
            failing += len(expected)
        assert failing == 31


class TestProofTrace:
    def test_m1_each_pick(self):
        f = cnf(("p", "q", "r"))
        traces = check_proof_traces(f)
        assert [picks for picks, _ in traces] == [(0,), (1,), (2,)]
        for _, res in traces:
            assert res.ok, res.failures
            assert res.levels == 2

    def test_m2_all_consistent_choices(self):
        f = cnf(("p", "q", "r"), ("-p", "-q", "s"))
        traces = check_proof_traces(f)
        assert [picks for picks, _ in traces] == choice_sets_oracle(f)
        for _, res in traces:
            assert res.ok, res.failures
            assert res.levels == 6
        assert len(traces) == 7  # 9 pairs minus the p/-p and q/-q conflicts

    def test_unsatisfiable_formula_has_no_traces(self):
        assert check_proof_traces(unsat_eight_clauses()) == []

    def test_nine_clauses_all_ok(self):
        traces = check_proof_traces(nine_clauses())
        assert [picks for picks, _ in traces] == choice_sets_oracle(nine_clauses())
        assert len(traces) == 284
        for _, res in traces:
            assert res.ok, res.failures
            assert res.levels == 4 * 9 - 2

    def test_rejects_above_cap(self):
        with pytest.raises(ValueError, match="17 clauses exceed the choice-set cap 16"):
            check_proof_traces(random_cnf(Random(3), 17))

    @staticmethod
    def flipped_trace(monkeypatch, x, y):
        f = cnf(("p", "q", "r"), ("-p", "-q", "s"))
        layout = teq_gadget(f)
        t = layout.tournament
        bad = flip_edges(layout, [(t.index(x), t.index(y))])
        monkeypatch.setattr(tsol.verification, "teq_gadget", lambda _: bad)
        return dict(check_proof_traces(f))[(0, 1)]

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

    def test_reports_lost_condorcet_winner(self, monkeypatch):
        # c1 now beats x1_1, so it joins the innermost level, where it beats d
        res = self.flipped_trace(monkeypatch, "c1", "x1_1")
        assert not res.ok and res.levels == 6
        assert res.failures == (
            "chain node c1 wrong in tower 1",
            "decision node is not the winner of the innermost level",
            "step relation misses x1_1 => c1 at level 2",
            "decision node leaves the TEQ at tower level 1",
            "decision node leaves the TEQ at tower level 2",
            "decision node leaves the TEQ at tower level 3",
        )


class TestSweep:
    def test_n3_exhaustive(self):
        report = sweep([3])
        assert report.instances == 8
        assert report.total_failures == 0
        assert report.serialize() == (
            "sweep ns=3 mode=exhaustive"
            " checks=condorcet,heuristic-eq,nonempty,single-scc,teq-in-banks seed=0 samples=0\n"
            "check condorcet: pass=8 fail=0\n"
            "check heuristic-eq: pass=8 fail=0\n"
            "check nonempty: pass=8 fail=0\n"
            "check single-scc: pass=8 fail=0\n"
            "check teq-in-banks: pass=8 fail=0\n"
            "8 instances, 0 failures\n"
        )

    def test_random_report_text(self):
        report = sweep([6, 4], mode="random", samples=7, seed=2)
        assert report.serialize() == (
            "sweep ns=6,4 mode=random"
            " checks=condorcet,heuristic-eq,nonempty,single-scc,teq-in-banks seed=2 samples=7\n"
            "check condorcet: pass=14 fail=0\n"
            "check heuristic-eq: pass=14 fail=0\n"
            "check nonempty: pass=14 fail=0\n"
            "check single-scc: pass=14 fail=0\n"
            "check teq-in-banks: pass=14 fail=0\n"
            "14 instances, 0 failures\n"
        )

    def test_n1_trivial(self):
        report = sweep([1])
        assert report.instances == 1
        assert report.total_failures == 0

    def test_worker_count_does_not_change_bytes(self):
        # each task starts fresh TEQ memos at its own chunk start, and the
        # worker count moves the chunk starts
        for n, counts in ((4, (3,)), (5, (2, 3, 7))):
            one = sweep([n], workers=1).serialize()
            for workers in counts:
                assert sweep([n], workers=workers).serialize() == one

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
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            sweep([3], mode="bogus")
        with pytest.raises(ValueError, match="^no checks selected$"):
            sweep([3], checks=())
        with pytest.raises(ValueError, match="^sizes must be positive$"):
            sweep([0])
        with pytest.raises(ValueError, match="^exhaustive mode takes no sample count$"):
            sweep([3], samples=5)
        with pytest.raises(ValueError, match="^exhaustive mode takes no seed$"):
            sweep([3], seed=5)

    @staticmethod
    def fail_counts(report):
        return tuple(report.failures[c] for c in report.checks)

    def test_checks_catch_a_teq_that_is_the_carrier(self, monkeypatch):
        exact = _pykernel.teq_exact_masks

        def carrier(cols, x_mask, shared=None):
            return (x_mask, *exact(cols, x_mask, shared)[1:])

        monkeypatch.setattr(_pykernel, "teq_exact_masks", carrier)
        # condorcet, heuristic-eq, nonempty, single-scc, teq-in-banks
        assert self.fail_counts(sweep([4])) == (32, 64, 0, 64, 64)
        report = sweep([5])
        assert self.fail_counts(report) == (320, 960, 0, 960, 960)
        assert report.serialize().count("\nFAIL ") == 3200
        assert report.counterexamples[0] == "teq-in-banks n=5 bits=0"

    def test_checks_catch_an_empty_teq(self, monkeypatch):
        exact = _pykernel.teq_exact_masks

        def empty(cols, x_mask, shared=None):
            return (0, *exact(cols, x_mask, shared)[1:])

        monkeypatch.setattr(_pykernel, "teq_exact_masks", empty)
        assert self.fail_counts(sweep([4])) == (32, 64, 64, 64, 0)
        assert self.fail_counts(sweep([5])) == (320, 1024, 1024, 1024, 0)

    def test_banks_checks_catch_a_banks_set_that_is_empty(self, monkeypatch):
        monkeypatch.setattr(_pykernel, "banks_member_masks", lambda *args: None)
        assert self.fail_counts(sweep([4])) == (32, 0, 0, 0, 64)

    def test_pool_size_bounded_by_task_count(self, monkeypatch):
        asked = []

        class FakePool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr("multiprocessing.get_context", lambda method: FakeContext())
        many = sweep([3], workers=64)  # 8 instances, so 8 one-instance tasks
        assert asked == [8]
        assert many.serialize() == sweep([3], workers=1).serialize()

    def test_worker_cap_checked_before_any_pool(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a process context was asked for")

        monkeypatch.setattr("multiprocessing.get_context", no_pool)
        with pytest.raises(ValueError, match="^workers must be between 1 and 256$"):
            sweep([3], workers=10**6)

    def test_empty_size_list_rejected(self):
        # its report would carry the empty header field ns=
        with pytest.raises(ValueError, match="^no sizes given$"):
            sweep([])

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
