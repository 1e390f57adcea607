"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

from tsol.banks import banks_set
from tsol.core import enumerate_tournaments
from tsol.reductions import banks_gadget, cnf, teq_gadget, validate_layout
from tsol.teq import teq_exact
from tsol.verification import (
    check_proof_traces,
    sample_chain_reachability,
    sat_brute_force,
    sweep,
    verify_banks_reduction,
    verify_teq_reduction,
)

from oracles import (
    all_formulas_m2,
    banks_oracle,
    nine_clauses,
    random_cnf,
    relation_pairs,
    teq_oracle,
    unsat_eight_clauses,
)

FIG_PAIRS = [("c", "a"), ("a", "b"), ("b", "c"), ("a", "d"), ("a", "e"), ("c", "e"), ("d", "e")]


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL after {time.perf_counter() - start:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS in {elapsed:.1f}s")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_1_worked_example_regression(fig1):
    with criterion(1, "worked-example regression", budget_s=1.0):
        res = teq_exact(fig1)
        assert res.teq_set == {fig1.index(x) for x in "abc"}
        assert banks_set(fig1) == {fig1.index(x) for x in "abcd"}
        expected = frozenset((fig1.index(x), fig1.index(y)) for x, y in FIG_PAIRS)
        assert relation_pairs(res) == expected


def test_criterion_2_brute_force_oracle_equivalence():
    with criterion(2, "brute-force oracle equivalence", budget_s=600.0):
        mismatches = 0
        for n in (5, 6):
            for t in enumerate_tournaments(n):
                if banks_set(t) != banks_oracle(t):
                    mismatches += 1
        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                res = teq_exact(t)
                if (res.teq_set, relation_pairs(res)) != teq_oracle(t):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_3_property_sweep():
    with criterion(3, "property sweep n<=6"):
        report = sweep([1, 2, 3, 4, 5, 6])
        if report.total_failures:
            artifact = Path("acceptance_artifacts")
            artifact.mkdir(exist_ok=True)
            (artifact / "sweep_counterexamples.txt").write_text(report.serialize())
        assert report.instances == 1 + 2 + 8 + 64 + 1024 + 32768
        assert report.total_failures == 0, report.counterexamples[:5]


def test_criterion_4_banks_reduction():
    with criterion(4, "Banks reduction agreement", budget_s=300.0):
        rng = Random(20240)
        formulas = [random_cnf(rng, rng.randint(1, 3)) for _ in range(520)]
        formulas.append(unsat_eight_clauses())
        disagreements = sum(verify_banks_reduction(f).verdict != "AGREE" for f in formulas)
        assert disagreements == 0


def test_criterion_5_teq_reduction():
    with criterion(5, "TEQ reduction agreement", budget_s=600.0):
        # exact: every 1- and 2-clause formula over four variables
        exact_family = all_formulas_m2()
        assert len(exact_family) == 32 + 32 * 32
        disagreements = 0
        for f in exact_family:
            v = verify_teq_reduction(f)
            if v.verdict != "AGREE":
                disagreements += 1
        assert disagreements == 0

        # exact on seeded three-clause formulas
        fig = cnf(("-p", "s", "q"), ("p", "s", "r"), ("p", "q", "-r"))
        rng = Random(5)
        three_clause = [fig] + [random_cnf(rng, 3) for _ in range(10)]
        for f in three_clause:
            v = verify_teq_reduction(f)
            assert v.verdict == "AGREE"

        # exact on the canonical unsatisfiable eight-clause formula: d leaves TEQ
        v = verify_teq_reduction(unsat_eight_clauses())
        assert (v.sat, v.member, v.verdict) == (False, False, "AGREE")

        # exact above eight clauses too: a satisfiable nine-clause formula keeps d
        v = verify_teq_reduction(nine_clauses())
        assert (v.sat, v.member, v.verdict) == (True, True, "AGREE")


def test_criterion_6_structural_validation(fig_cnf):
    with criterion(6, "gadget structure and sizes"):
        rng = Random(99)
        for m in range(1, 9):
            f = random_cnf(rng, m)
            b = banks_gadget(f)
            q = teq_gadget(f)
            assert b.tournament.n == 6 * m - 1
            assert q.tournament.n == 12 * m - 7
            assert validate_layout(b) == []
            assert validate_layout(q) == []

        tb = banks_gadget(fig_cnf).tournament
        tq = teq_gadget(fig_cnf).tournament
        for t in (tb, tq):
            # complement back-edges of the drawn instance
            assert t.dominates(t.index("x3_1"), t.index("x1_1"))
            assert t.dominates(t.index("x2_1"), t.index("x1_1"))
            assert t.dominates(t.index("x3_3"), t.index("x2_3"))
        for i in (1, 2):
            for k in (1, 2, 3):
                assert tq.dominates(tq.index(f"x{i}_{k}"), tq.index(f"z{i}_{k}"))
                for l in (1, 2, 3):
                    if l != k:
                        assert tq.dominates(tq.index(f"z{i}_{k}"), tq.index(f"x{i}_{l}"))


def test_criterion_7_reachability_and_proof_trace():
    with criterion(7, "reachability and proof-trace checks"):
        family = all_formulas_m2()
        reach_failures = 0
        for f in family:
            layout = teq_gadget(f)
            _, failures = sample_chain_reachability(layout, 100, seed=20240)
            reach_failures += len(failures)
        assert reach_failures == 0

        trace_failures = 0
        traced = 0
        for f in family:
            if sat_brute_force(f) is None:
                continue
            for _, res in check_proof_traces(f):
                traced += 1
                assert res.levels == 4 * f.m - 2
                if not res.ok:
                    trace_failures += 1
        assert traced > 0
        assert trace_failures == 0


def test_criterion_8_performance_report(tmp_path, capsys):
    with criterion(8, "exact-versus-heuristic benchmark"):
        from tsol import cli

        out_file = tmp_path / "bench.txt"
        code = cli.main(
            [
                "bench",
                "--sizes",
                "10,12,14",
                "--samples",
                "20",
                "--seed",
                "7",
                "--output",
                str(out_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = out_file.read_text().splitlines()
        header = lines[0].split()
        assert "mean_calls" in header and "median_calls" in header
        assert len(lines) == 1 + 3 * 2  # sizes x methods
        calls_col = header.index("mean_calls")
        for line in lines[1:]:
            assert float(line.split()[calls_col]) > 0
        print()
        print(out_file.read_text())
