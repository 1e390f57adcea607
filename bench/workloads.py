"""The four workloads: seeded inputs, the timed operation, and its check.

Set-up builds every input from the seed with program functions and, for
the two CLI workloads, writes them to files.  An operation is one call
into the program's public surface.  Checks run after the timed window and
compare each output with ``reference`` (computed apart from the program)
or with a property the method must satisfy; never with a stored output.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

# Program entry points are called through their modules (tsol.teq.teq_exact,
# not a bare teq_exact) so that the wrappers of tracing.py intercept them.
import tsol.cli
import tsol.reductions
import tsol.teq
import tsol.verification
from tsol.core import format_tournament, random_tournament
from tsol.reductions import Cnf, Literal

from reference import reference_teq, satisfiable

RANDOM_N = 20
RANDOM_INPUTS = 64

GADGET_CLAUSES = 3
GADGET_VARIABLES = 6
GADGET_INPUTS = 24
GADGET_REFERENCE_SAMPLE = 2

# Unsatisfiable files outnumber satisfiable ones, so the median op stays
# inside the unsatisfiable cost class instead of jumping between classes.
UNSAT_VARIANTS = 15  # plus the canonical formula itself
UNSAT_VARIABLES = 9
SAT_INPUTS = 8
SAT_CLAUSES = (8, 9, 10)
SAT_VARIABLES = 8

SWEEP_N = 6
SWEEP_INSTANCES = 1 << (SWEEP_N * (SWEEP_N - 1) // 2)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], list]
    op: Callable[[object], object]
    check: Callable[[int, list, list[tuple[int, object]]], list[str]]
    instances_per_op: int = 1


# --- shared pieces --------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``tsol`` command; returns the exit code and stdout."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = tsol.cli.main(argv)
    return code, buf.getvalue()


def beats_of_rows(rows, n: int) -> list[list[int]]:
    return [[rows[i] >> j & 1 for j in range(n)] for i in range(n)]


def read_tournament_file(text: str) -> tuple[list[str], list[list[int]]]:
    """Names and 0/1 matrix of a tournament text file, read without ``tsol``."""
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    names = lines[1].split()
    beats = [[1 if ch == "1" else 0 for ch in lines[2 + i].strip()] for i in range(n)]
    return names, beats


def random_clause(rng: random.Random, variables: int) -> tuple[int, ...]:
    return tuple(v if rng.getrandbits(1) else -v for v in rng.sample(range(1, variables + 1), 3))


def to_cnf(clauses: list[tuple[int, ...]]) -> Cnf:
    return Cnf(tuple(tuple(Literal(f"v{abs(x)}", x < 0) for x in c) for c in clauses))


def write_dimacs(path: Path, variables: int, clauses: list[tuple[int, ...]]) -> None:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    path.write_text(f"p cnf {variables} {len(clauses)}\n{body}")


def canonical_unsat() -> list[tuple[int, ...]]:
    """All eight sign patterns over three variables: the canonical unsatisfiable formula."""
    return [
        tuple(-v if neg else v for v, neg in zip((1, 2, 3), signs))
        for signs in product((False, True), repeat=3)
    ]


def unsat_variant(rng: random.Random) -> list[tuple[int, ...]]:
    """The canonical formula with variables renamed and sign-flipped, clauses and literals shuffled."""
    names = rng.sample(range(1, UNSAT_VARIABLES + 1), 3)
    flips = [rng.choice((1, -1)) for _ in range(3)]
    rename = {v: names[v - 1] * flips[v - 1] for v in (1, 2, 3)}
    clauses = [[rename[abs(x)] * (1 if x > 0 else -1) for x in c] for c in canonical_unsat()]
    for c in clauses:
        rng.shuffle(c)
    rng.shuffle(clauses)
    return [tuple(c) for c in clauses]


def satisfiable_formula(rng: random.Random, m: int) -> list[tuple[int, ...]]:
    while True:
        clauses = [random_clause(rng, SAT_VARIABLES) for _ in range(m)]
        if satisfiable(clauses):
            return clauses


# --- random-solve ---------------------------------------------------------------


def setup_random_solve(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    inputs = []
    for i in range(RANDOM_INPUTS):
        path = workdir / f"random-{i}.trn"
        path.write_text(format_tournament(random_tournament(RANDOM_N, rng.getrandbits(32))))
        inputs.append(["solve", "--method", "teq-exact", "--input", str(path)])
    return inputs


def check_random_solve(seed: int, inputs: list, outputs: list) -> list[str]:
    expected = []
    for argv in inputs:
        names, beats = read_tournament_file(Path(argv[-1]).read_text())
        expected.append(" ".join(sorted(names[a] for a in reference_teq(beats))) + "\n")
    return [
        f"random-solve input {i}: got {out!r}, reference TEQ line {expected[i]!r}"
        for i, out in outputs
        if out != (0, expected[i])
    ]


# --- gadget-teq -----------------------------------------------------------------


def setup_gadget_teq(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    inputs = []
    for _ in range(GADGET_INPUTS):
        clauses = [random_clause(rng, GADGET_VARIABLES) for _ in range(GADGET_CLAUSES)]
        inputs.append((clauses, tsol.reductions.teq_gadget(to_cnf(clauses)).tournament))
    return inputs


def op_gadget_teq(item) -> frozenset[int]:
    return tsol.teq.teq_exact(item[1]).teq_set


def check_gadget_teq(seed: int, inputs: list, outputs: list) -> list[str]:
    sat = [satisfiable(clauses) for clauses, _ in inputs]
    sample = random.Random(seed).sample(range(len(inputs)), GADGET_REFERENCE_SAMPLE)
    refs = {i: reference_teq(beats_of_rows(inputs[i][1].rows, inputs[i][1].n)) for i in sample}
    errors = []
    for i, teq in outputs:
        if (inputs[i][1].names.index("d") in teq) != sat[i]:
            errors.append(f"gadget-teq input {i}: d in TEQ is {not sat[i]}, formula SAT={sat[i]}")
        if i in refs and teq != refs[i]:
            errors.append(f"gadget-teq input {i}: TEQ differs from the reference")
    return errors


# --- banks-verify ---------------------------------------------------------------


def setup_banks_verify(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    formulas = [(3, canonical_unsat())]
    formulas += [(UNSAT_VARIABLES, unsat_variant(rng)) for _ in range(UNSAT_VARIANTS)]
    formulas += [
        (SAT_VARIABLES, satisfiable_formula(rng, SAT_CLAUSES[i % len(SAT_CLAUSES)]))
        for i in range(SAT_INPUTS)
    ]
    inputs = []
    for i, (variables, clauses) in enumerate(formulas):
        path = workdir / f"formula-{i}.cnf"
        write_dimacs(path, variables, clauses)
        inputs.append(["verify", "--target", "banks", "--input", str(path)])
    return inputs


def read_dimacs_clauses(text: str) -> list[tuple[int, ...]]:
    nums = [int(x) for line in text.splitlines()[1:] for x in line.split()]
    clauses, cur = [], []
    for x in nums:
        if x == 0:
            clauses.append(tuple(cur))
            cur = []
        else:
            cur.append(x)
    return clauses


def check_banks_verify(seed: int, inputs: list, outputs: list) -> list[str]:
    expected = []
    for argv in inputs:
        s = "true" if satisfiable(read_dimacs_clauses(Path(argv[-1]).read_text())) else "false"
        expected.append((0, f"SAT={s} MEMBER={s} VERDICT=AGREE\n"))
    return [
        f"banks-verify input {i}: got {out!r}, want {expected[i]!r}"
        for i, out in outputs
        if out != expected[i]
    ]


# --- sweep-exhaustive -----------------------------------------------------------


def setup_sweep(seed: int, workdir: Path) -> list:
    return [[SWEEP_N]]


def op_sweep(ns):
    return tsol.verification.sweep(ns, checks=tsol.verification.SWEEP_CHECKS, workers=1)


def check_sweep(seed: int, inputs: list, outputs: list) -> list[str]:
    want_checks = tuple(sorted(tsol.verification.SWEEP_CHECKS))
    errors = []
    for _, report in outputs:
        if (
            report.instances != SWEEP_INSTANCES
            or report.total_failures != 0
            or report.checks != want_checks
            or any(report.passes[c] != SWEEP_INSTANCES for c in want_checks)
        ):
            errors.append(f"sweep-exhaustive: report is not all-pass:\n{report.serialize()}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-solve", setup_random_solve, run_cli, check_random_solve),
        Workload("gadget-teq", setup_gadget_teq, op_gadget_teq, check_gadget_teq),
        Workload("banks-verify", setup_banks_verify, run_cli, check_banks_verify),
        Workload("sweep-exhaustive", setup_sweep, op_sweep, check_sweep, SWEEP_INSTANCES),
    )
}
