import os
import signal
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from tsol import _pykernel, cli
from tsol.core import (
    Tournament,
    default_names,
    enumerate_tournaments,
    format_tournament,
    parse_tournament,
    random_tournament,
)
from tsol.verification import SweepReport

from oracles import (
    format_dimacs,
    nine_clauses,
    random_cnf,
    shortest_cycle_length,
    source_components,
    teq_oracle,
)


@pytest.fixture
def fig1_file(data_dir):
    return str(data_dir / "fig1.txt")


@pytest.fixture
def fig_cnf_file(data_dir):
    return str(data_dir / "fig.cnf")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


BUDGETS = [[], ["--time-budget-ms", "60000"]]


class TestSolve:
    def test_teq_exact(self, capsys, fig1_file):
        code, out, _ = run(capsys, ["solve", "--input", fig1_file, "--method", "teq-exact"])
        assert (code, out) == (0, "a b c\n")

    def test_banks(self, capsys, fig1_file):
        code, out, _ = run(capsys, ["solve", "--input", fig1_file, "--method", "banks"])
        assert (code, out) == (0, "a b c d\n")

    def test_heuristic(self, capsys, fig1_file):
        code, out, _ = run(capsys, ["solve", "--input", fig1_file, "--method", "teq-heuristic"])
        assert (code, out) == (0, "a b c\n")

    def test_topcycle(self, capsys, tmp_path, fig1_file):
        code, out, _ = run(capsys, ["solve", "--input", fig1_file, "--method", "topcycle"])
        assert (code, out) == (0, "a b c d e\n")
        # the set line and --member for every alternative, against the source
        # components of the dominance pairs
        tournaments = [t for n in range(1, 6) for t in enumerate_tournaments(n)]
        tournaments += [random_tournament(n, seed) for n in range(6, 13) for seed in range(30)]
        path = tmp_path / "t.txt"
        argv = ["solve", "--input", str(path), "--method", "topcycle"]
        for t in tournaments:
            pairs = {(b, a) for b in range(t.n) for a in range(t.n) if t.dominates(b, a)}
            tc = source_components(frozenset(range(t.n)), pairs)
            path.write_text(format_tournament(t))
            assert run(capsys, argv) == (0, " ".join(sorted(t.names[a] for a in tc)) + "\n", "")
            for a in range(t.n):
                want = "true\n" if a in tc else "false\n"
                assert run(capsys, argv + ["--member", t.names[a]]) == (0, want, "")

    @pytest.mark.parametrize("member, answer", [("a", "true"), ("b", "false")])
    def test_topcycle_member(self, capsys, data_dir, member, answer):
        # the top cycle of this tournament is a c d e
        argv = ["solve", "--input", str(data_dir / "random_5_42.txt"), "--method", "topcycle"]
        code, out, _ = run(capsys, argv + ["--member", member])
        assert (code, out) == (0, answer + "\n")

    def test_banks_member_false(self, capsys, fig1_file):
        code, out, _ = run(
            capsys,
            ["solve", "--input", fig1_file, "--method", "banks", "--member", "e"],
        )
        assert (code, out) == (0, "false\n")

    def test_banks_member_witness(self, capsys, fig1_file):
        code, out, _ = run(
            capsys,
            ["solve", "--input", fig1_file, "--method", "banks", "--member", "d"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "true"
        assert lines[1].startswith("chain: d > ")

    def test_teq_member_path(self, capsys, fig1_file):
        paths = {"a": "a => b => c => a", "b": "b => c => a => b", "c": "c => a => b => c"}
        for method in ("teq-exact", "teq-heuristic"):
            for member, path in paths.items():
                code, out, _ = run(
                    capsys,
                    ["solve", "--input", fig1_file, "--method", method, "--member", member],
                )
                assert (code, out) == (0, f"true\npath: {path}\n")

    def test_unknown_member_name(self, capsys, fig1_file):
        code, _, err = run(
            capsys,
            ["solve", "--input", fig1_file, "--method", "banks", "--member", "zz"],
        )
        assert code == 2
        assert "zz" in err

    def test_trace(self, capsys, fig1_file):
        code, out, _ = run(
            capsys, ["solve", "--input", fig1_file, "--method", "teq-exact", "--trace", "1"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a b c"
        assert lines[1] == "TEQ{a b c d e} = {a b c}"
        assert len(lines) == 7

    def test_member_with_trace(self, capsys, fig1_file):
        code, out, _ = run(
            capsys,
            ["solve", "--input", fig1_file, "--member", "a", "--trace", "1"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "true"
        assert lines[1].startswith("path: a => ")
        assert lines[2] == "TEQ{a b c d e} = {a b c}"
        assert len(lines) == 2 + 6

    @pytest.mark.parametrize("depth", ["0", "2"])
    @pytest.mark.parametrize("extra", [[], ["--member", "a"], ["--member", "e"]])
    def test_traced_exact_solve_runs_the_recursion_once(
        self, capsys, monkeypatch, fig1_file, depth, extra
    ):
        # the answer comes from the trace's solver, so one memo serves both
        made = []
        real = _pykernel._exact_solver

        def counting(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(_pykernel, "_exact_solver", counting)
        argv = ["solve", "--input", fig1_file, "--trace", depth, *extra]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "TEQ{a b c d e} = {a b c}" in out.splitlines()
        assert len(made) == 1

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--method", "banks", "--trace", "1"], "teq method"),
            (["--method", "topcycle", "--member", "a", "--trace", "0"], "teq method"),
            (["--method", "teq-exact", "--trace", "-1"], "nonnegative"),
            (["--method", "teq-heuristic", "--trace", "-2", "--time-budget-ms", "60000"], "nonnegative"),
        ],
    )
    def test_trace_rejected_before_solving(self, capsys, monkeypatch, fig1_file, extra, message):
        def unreachable(*args):
            raise AssertionError("solved before --trace was checked")

        monkeypatch.setattr(cli, "_solve_text", unreachable)
        code, out, err = run(capsys, ["solve", "--input", fig1_file, *extra])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_budget_child_error_exit_2(self, capsys, fig1_file):
        code, out, err = run(
            capsys,
            ["solve", "--input", fig1_file, "--member", "zz", "--time-budget-ms", "60000"],
        )
        assert (code, out) == (2, "")
        assert err == "error: unknown alternative 'zz'\n"

    def test_parse_error_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("tournament 2\na b\n-1\nx-\n")
        code, _, err = run(capsys, ["solve", "--input", str(bad)])
        assert code == 2
        assert "line 4" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["solve", "--input", str(tmp_path / "nope.txt")])
        assert code == 2

    def test_time_budget_exceeded(self, capsys, tmp_path):
        # exact TEQ on 80 random alternatives runs far over this budget
        big = tmp_path / "big.txt"
        big.write_text(format_tournament(random_tournament(80, 1)))
        code, out, _ = run(
            capsys,
            ["solve", "--input", str(big), "--method", "teq-exact", "--time-budget-ms", "80"],
        )
        assert code == 3
        assert out.startswith("timeout method=teq-exact")

    def test_negative_time_budget_rejected_before_reading(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            ["solve", "--input", str(tmp_path / "nope.txt"), "--time-budget-ms", "-5"],
        )
        assert (code, out, err) == (2, "", "error: --time-budget-ms must be nonnegative\n")

    @pytest.mark.parametrize("name", ["fig1.txt", "nope.txt"])
    def test_time_budget_above_cap_rejected_before_reading(self, capsys, data_dir, name):
        # a budget this large used to overflow the pipe's poll timeout
        code, out, err = run(
            capsys,
            ["solve", "--input", str(data_dir / name), "--time-budget-ms", str(10**20)],
        )
        assert (code, out) == (2, "")
        assert err == "error: --time-budget-ms exceeds the cap 86400000 (one day)\n"

    def test_time_budget_at_cap_accepted(self, capsys, fig1_file):
        code, out, _ = run(
            capsys,
            ["solve", "--input", fig1_file, "--method", "banks", "--time-budget-ms", "86400000"],
        )
        assert (code, out) == (0, "a b c d\n")

    def test_time_budget_met(self, capsys, fig1_file):
        code, out, _ = run(
            capsys,
            ["solve", "--input", fig1_file, "--method", "banks", "--time-budget-ms", "60000"],
        )
        assert (code, out) == (0, "a b c d\n")

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_too_deep_input_exit_2(self, capsys, tmp_path, budget):
        # i < j, and i beats j iff j = i + 1: D(0) is the same family on n - 2
        # nodes, so the exact recursion is about n / 2 frames deep
        n = 200
        rows = [sum(1 << j for j in range(n) if j == i + 1 or j < i - 1) for i in range(n)]
        deep = tmp_path / "deep.txt"
        deep.write_text(format_tournament(Tournament(default_names(n), tuple(rows))))
        limit = sys.getrecursionlimit()
        # 100 frames for the command, counted from this test's own depth
        sys.setrecursionlimit(frame_depth() + 100)
        try:
            code, out, err = run(capsys, ["solve", "--input", str(deep), *budget])
        finally:
            sys.setrecursionlimit(limit)
        assert (code, out) == (2, "")
        assert err.startswith("error: maximum recursion depth exceeded")

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_solve_error_comes_out_unchanged(self, monkeypatch, fig1_file, budget):
        def broken(*args):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(cli, "_solve_text", broken)
        with pytest.raises(RuntimeError, match="kernel fault"):
            cli.main(["solve", "--input", fig1_file, *budget])
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "outcome, code", [("met", 0), ("exceeded", 3), ("error", 2)]
    )
    def test_budget_cancels_the_timer_and_restores_the_handler(
        self, capsys, tmp_path, fig1_file, outcome, code
    ):
        big = tmp_path / "big.txt"
        big.write_text(format_tournament(random_tournament(80, 1)))
        argv = {
            "met": ["--input", fig1_file, "--method", "banks", "--time-budget-ms", "60000"],
            "exceeded": ["--input", str(big), "--method", "teq-exact", "--time-budget-ms", "80"],
            "error": ["--input", fig1_file, "--member", "zz", "--time-budget-ms", "60000"],
        }[outcome]

        def before(signum, frame):
            raise AssertionError("the earlier SIGALRM handler ran")

        previous = signal.signal(signal.SIGALRM, before)
        try:
            assert run(capsys, ["solve", *argv])[0] == code
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGALRM) is before
        finally:
            signal.signal(signal.SIGALRM, previous)


class TestMemberPath:
    def test_every_member_of_small_tournaments(self, capsys, tmp_path):
        # the path: line is a shortest cycle through the member in the TEQ
        # relation on the TEQ set, or the member alone when there is none;
        # up to n = 5 all cycles through a member have one length, so seeded
        # n = 6..8 tournaments, where they need not, test "shortest"
        tournaments = [t for n in range(1, 6) for t in enumerate_tournaments(n)]
        tournaments += [random_tournament(n, seed) for n in (6, 7, 8) for seed in range(100)]
        path = tmp_path / "t.txt"
        cyclic = set()
        for t in tournaments:
            teq, pairs = teq_oracle(t)
            path.write_text(format_tournament(t))
            for a in sorted(teq):
                code, out, _ = run(capsys, ["solve", "--input", str(path), "--member", t.names[a]])
                assert code == 0
                first, line = out.splitlines()
                assert first == "true" and line.startswith("path: ")
                length = shortest_cycle_length(pairs, teq, a)
                cyclic.add(length is not None)
                if length is None:
                    assert line == f"path: {t.names[a]}"
                    continue
                nodes = [t.index(x) for x in line.removeprefix("path: ").split(" => ")]
                assert nodes[0] == nodes[-1] == a
                assert len(nodes) == length + 1 and len(set(nodes)) == length
                assert set(nodes) <= teq
                assert all(edge in pairs for edge in zip(nodes, nodes[1:]))
        assert cyclic == {False, True}


class TestReduce:
    def test_banks_target(self, capsys, tmp_path, fig_cnf_file):
        out_file = tmp_path / "g.trn"
        code, _, _ = run(
            capsys,
            [
                "reduce",
                "--input",
                fig_cnf_file,
                "--target",
                "banks",
                "--output",
                str(out_file),
            ],
        )
        assert code == 0
        t = parse_tournament(out_file.read_text())
        assert t.n == 17

    def test_teq_target_stdout(self, capsys, fig_cnf_file):
        code, out, _ = run(capsys, ["reduce", "--input", fig_cnf_file, "--target", "teq"])
        assert code == 0
        assert parse_tournament(out).n == 29

    def test_deterministic_bytes(self, capsys, tmp_path, fig_cnf_file):
        outputs = []
        for name in ("a.trn", "b.trn"):
            path = tmp_path / name
            run(
                capsys,
                ["reduce", "--input", fig_cnf_file, "--target", "teq", "--output", str(path)],
            )
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_labels_and_dot(self, capsys, tmp_path, fig_cnf_file):
        labels = tmp_path / "labels.tsv"
        dot = tmp_path / "g.dot"
        code, _, _ = run(
            capsys,
            [
                "reduce",
                "--input",
                fig_cnf_file,
                "--target",
                "banks",
                "--output",
                str(tmp_path / "g.trn"),
                "--labels",
                str(labels),
                "--dot",
                str(dot),
            ],
        )
        assert code == 0
        assert labels.read_text().splitlines()[0] == "d\tdecision"
        assert "cluster_level_1" in dot.read_text()

    def test_invalid_clause_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n1 -1 2 0\n")
        code, _, err = run(capsys, ["reduce", "--input", str(bad), "--target", "banks"])
        assert code == 2
        assert "clause 1" in err

    def test_reduced_file_round_trips_through_solve(self, capsys, tmp_path, fig_cnf_file):
        out_file = tmp_path / "g.trn"
        run(
            capsys,
            ["reduce", "--input", fig_cnf_file, "--target", "banks", "--output", str(out_file)],
        )
        code, out, _ = run(
            capsys,
            ["solve", "--input", str(out_file), "--method", "banks", "--member", "d"],
        )
        assert code == 0
        assert out.splitlines()[0] == "true"


class TestVerify:
    def test_banks_agree(self, capsys, fig_cnf_file):
        code, out, _ = run(capsys, ["verify", "--input", fig_cnf_file, "--target", "banks"])
        assert code == 0
        assert out == "SAT=true MEMBER=true VERDICT=AGREE\n"

    def test_teq_single_clause(self, capsys, tmp_path):
        f = tmp_path / "one.cnf"
        f.write_text("p cnf 3 1\n1 2 3 0\n")
        code, out, _ = run(capsys, ["verify", "--input", str(f), "--target", "teq"])
        assert code == 0
        assert out == "SAT=true MEMBER=true VERDICT=AGREE\n"

    def test_teq_fig_exact(self, capsys, fig_cnf_file):
        code, out, err = run(capsys, ["verify", "--input", fig_cnf_file, "--target", "teq"])
        assert code == 0
        assert out == "SAT=true MEMBER=true VERDICT=AGREE\n"
        assert err == ""

    def test_teq_nine_clauses_exact(self, capsys, tmp_path):
        f = tmp_path / "nine.cnf"
        f.write_text(format_dimacs(nine_clauses()))
        code, out, err = run(capsys, ["verify", "--input", str(f), "--target", "teq"])
        assert code == 0
        assert out == "SAT=true MEMBER=true VERDICT=AGREE\n"
        assert err == ""

    def test_teq_above_choice_set_cap_exit_2(self, capsys, tmp_path):
        f = tmp_path / "seventeen.cnf"
        f.write_text(format_dimacs(random_cnf(Random(3), 17)))
        code, out, err = run(capsys, ["verify", "--input", str(f), "--target", "teq"])
        assert code == 2
        assert out == ""
        assert err == "error: 17 clauses exceed the choice-set cap 16\n"

    def test_disagree_exit_code(self, capsys, fig_cnf_file, monkeypatch):
        from tsol.verification import ReductionVerdict

        monkeypatch.setattr(
            cli,
            "verify_banks_reduction",
            lambda f: ReductionVerdict(sat=True, member=False),
        )
        code, out, _ = run(capsys, ["verify", "--input", fig_cnf_file, "--target", "banks"])
        assert code == 1
        assert out == "SAT=true MEMBER=false VERDICT=DISAGREE\n"


    def test_oracle_disagreement_propagates(self, capsys, fig_cnf_file, monkeypatch):
        def disagree(f):
            raise RuntimeError("satisfiability oracles disagree")

        monkeypatch.setattr(cli, "verify_banks_reduction", disagree)
        with pytest.raises(RuntimeError, match="disagree"):
            cli.main(["verify", "--input", fig_cnf_file, "--target", "banks"])


class TestSweepCommand:
    def test_n3_exhaustive(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n", "3", "--exhaustive"])
        assert code == 0
        assert "8 instances, 0 failures" in out
        assert "duration:" in err

    def test_n1(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--n", "1"])
        assert code == 0
        assert "1 instances, 0 failures" in out

    def test_worker_invariance(self, capsys, tmp_path):
        texts = []
        for workers in ("1", "2"):
            path = tmp_path / f"report{workers}.txt"
            code, _, _ = run(
                capsys,
                ["sweep", "--n", "4", "--workers", workers, "--output", str(path)],
            )
            assert code == 0
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    def test_random_mode(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--n", "9", "--random", "--samples", "5", "--seed", "3"]
        )
        assert code == 0
        assert "5 instances, 0 failures" in out

    @pytest.mark.parametrize("sizes, item", [("", "''"), ("3,,4", "''"), ("3..", "'3..'")])
    def test_bad_size_item_exit_2(self, capsys, sizes, item):
        code, out, err = run(capsys, ["sweep", "--n", sizes])
        assert (code, out) == (2, "")
        assert err == f"error: bad size {item}: expected n or lo..hi\n"

    def test_size_list_cap(self):
        assert cli._parse_sizes("1..1000") == list(range(1, 1001))
        # the last range would need terabytes if it were expanded before the check
        for item in ["1..1001", "1..999,5,6", "1..1000000000000"]:
            with pytest.raises(ValueError) as info:
                cli._parse_sizes(item)
            last = item.split(",")[-1]
            assert str(info.value) == f"size item '{last}' takes the size list past its cap 1000"

    def test_size_list_cap_exit_2(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n", "3,1..1000"])
        assert (code, out) == (2, "")
        assert err == "error: size item '1..1000' takes the size list past its cap 1000\n"

    def test_exhaustive_samples_exit_2(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n", "3", "--samples", "5"])
        assert (code, out, err) == (2, "", "error: exhaustive mode takes no sample count\n")

    def test_exhaustive_seed_exit_2(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n", "3", "--seed", "5"])
        assert (code, out, err) == (2, "", "error: exhaustive mode takes no seed\n")

    def test_report_matches_the_readme_example(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Sweep report", 1)[1].split("```\n")[1]
        code, out, _ = run(capsys, ["sweep", "--n", "3", "--checks", "condorcet,nonempty"])
        assert (code, out) == (0, example)

    def test_random_mode_default_seed(self, capsys):
        _, default, _ = run(capsys, ["sweep", "--n", "5", "--random", "--samples", "3"])
        _, given, _ = run(
            capsys, ["sweep", "--n", "5", "--random", "--samples", "3", "--seed", "20240"]
        )
        assert default == given
        assert "seed=20240 samples=3" in default

    @pytest.mark.parametrize("checks", ["", "nonempty,"])
    def test_empty_check_name_exit_2(self, capsys, checks):
        code, out, err = run(capsys, ["sweep", "--n", "2", "--checks", checks])
        assert (code, out, err) == (2, "", "error: unknown check ''\n")

    def test_cap_exit_2(self, capsys):
        code, _, err = run(capsys, ["sweep", "--n", "9"])
        assert code == 2
        assert "capped" in err

    def test_worker_cap_exit_2(self, capsys, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a process context was asked for")

        # refused before any process could start
        monkeypatch.setattr("multiprocessing.get_context", no_pool)
        code, out, err = run(capsys, ["sweep", "--n", "7", "--workers", "100000"])
        assert (code, out, err) == (2, "", "error: workers must be between 1 and 256\n")

    def test_failure_exit_1(self, capsys, monkeypatch):
        fake = SweepReport(
            ns=(3,),
            mode="exhaustive",
            checks=("nonempty",),
            seed=0,
            samples=0,
            workers=1,
            instances=8,
            passes={"nonempty": 7},
            failures={"nonempty": 1},
            counterexamples=("nonempty n=3 bits=5",),
            duration_s=0.0,
        )
        monkeypatch.setattr(cli, "sweep", lambda *a, **k: fake)
        code, out, _ = run(capsys, ["sweep", "--n", "3"])
        assert code == 1
        assert "FAIL nonempty n=3 bits=5" in out


class TestBench:
    def test_table_shape(self, capsys):
        code, out, _ = run(
            capsys, ["bench", "--sizes", "5,6", "--samples", "2", "--seed", "1"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "size",
            "method",
            "mean_ms",
            "median_ms",
            "mean_calls",
            "median_calls",
        ]
        assert len(lines) == 1 + 2 * 2  # sizes x methods
        assert any("teq-heuristic" in l for l in lines)

    def test_nonpositive_samples_rejected(self, capsys):
        code, out, err = run(capsys, ["bench", "--sizes", "5", "--samples", "0"])
        assert (code, out, err) == (2, "", "error: --samples must be positive\n")

    def test_range_parsing(self, capsys):
        code, out, _ = run(capsys, ["bench", "--sizes", "4..5", "--samples", "1"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--input", "{cnf}", "--target", "banks", "--output", "{bad}"],
            ["reduce", "--input", "{cnf}", "--target", "teq", "--output", "-", "--labels", "{bad}"],
            ["reduce", "--input", "{cnf}", "--target", "banks", "--output", "-", "--dot", "{bad}"],
            ["sweep", "--n", "3", "--output", "{bad}"],
            ["bench", "--sizes", "4", "--samples", "1", "--output", "{bad}"],
        ],
    )
    def test_exit_2_with_message(self, capsys, tmp_path, fig_cnf_file, argv):
        bad = tmp_path / "no-such-dir" / "out.txt"
        argv = [a.format(cnf=fig_cnf_file, bad=bad) for a in argv]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: ") and str(bad) in err
        assert not bad.parent.exists()


class TestParserReuse:
    def test_successive_calls_match_fresh_processes(self, capsys, fig1_file, fig_cnf_file):
        # options given to one call must not leak into the next on the shared parser
        argvs = [
            ["solve", "--input", fig1_file, "--method", "teq-exact", "--member", "d"],
            ["verify", "--input", fig_cnf_file, "--target", "banks"],
            ["solve", "--input", fig1_file],
            ["sweep", "--n", "3", "--random", "--samples", "2", "--seed", "1"],
            ["sweep", "--n", "3", "--checks", "nonempty"],
        ]
        in_process = [run(capsys, argv)[:2] for argv in argvs]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        fresh = []
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "tsol.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            fresh.append((proc.returncode, proc.stdout))
        assert in_process == fresh
        assert in_process[0] == (0, "false\n")
        assert in_process[2] == (0, "a b c\n")


class TestImportCost:
    @staticmethod
    def fresh(code, **env_vars):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.update(env_vars)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        return proc.returncode, proc.stdout

    def test_cli_import_leaves_out_multiprocessing(self):
        # only the sweep pool imports it, when it starts
        code = "import sys, tsol.cli; print('multiprocessing' in sys.modules)"
        assert self.fresh(code) == (0, "False\n")

    def test_budgeted_solve_leaves_out_multiprocessing(self, data_dir):
        # a time budget is an in-process timer and starts no process
        fig1 = str(data_dir / "fig1.txt")
        code = (
            "import sys; from tsol import cli; "
            f"cli.main(['solve', '--input', {fig1!r}, '--time-budget-ms', '60000']); "
            "print('multiprocessing' in sys.modules)"
        )
        assert self.fresh(code) == (0, "a b c\nFalse\n")

    def test_backend_variable_is_ignored(self):
        # there is one kernel, so no environment variable selects one
        code = "import tsol; print(tsol.backend_name())"
        assert self.fresh(code, TSOL_BACKEND="native") == (0, "python\n")
