"""Brute-force oracles, reduction verdicts, and exhaustive property sweeps.

Satisfiability is decided by two independent oracles (assignment sweep and
choice-set sweep) that cross-check each other; the reduction verifiers
compare their verdict with membership of the decision node in the
corresponding gadget.  Sweeps run selected structural checks over all
labeled tournaments of a size (or seeded random samples), partitioned by
index range across workers, and fold the partial reports in range order so
the merged report does not depend on the worker count.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from tsol import _pykernel
from tsol.banks import banks_member
from tsol.core import (
    ENUMERATION_CAP,
    Tournament,
    condorcet_winner,
    random_tournament,
    set_of,
    subset_mask,
    tournament_from_bits,
)
from tsol.reductions import (
    Cnf,
    GadgetLayout,
    banks_gadget,
    decision_node,
    teq_gadget,
)
from tsol.teq import teq_exact, teq_heuristic, teq_solver

SAT_VARIABLE_CAP = 24
CHOICE_CLAUSE_CAP = 16
TEQ_EXACT_CLAUSE_CAP = 8  # 12m-7 <= 89 alternatives for the exact verifier

SWEEP_CHECKS = ("condorcet", "heuristic-eq", "nonempty", "single-scc", "teq-in-banks")


def sat_brute_force(f: Cnf) -> dict[str, bool] | None:
    """First satisfying assignment in lexicographic order, or None.

    Variables are ordered by first occurrence; the first variable is the
    most significant bit and False sorts before True.
    """
    variables = f.variables
    v = len(variables)
    if v > SAT_VARIABLE_CAP:
        raise ValueError(f"{v} variables exceed the brute-force cap {SAT_VARIABLE_CAP}")
    pos = {name: i for i, name in enumerate(variables)}
    clauses = [
        [(pos[l.variable], l.negated) for l in clause] for clause in f.clauses
    ]
    for word in range(1 << v):
        ok = True
        for clause in clauses:
            if not any((word >> (v - 1 - i) & 1) != negated for i, negated in clause):
                ok = False
                break
        if ok:
            return {
                name: bool(word >> (v - 1 - i) & 1) for i, name in enumerate(variables)
            }
    return None


@dataclass(frozen=True)
class ChoiceSet:
    """One picked literal position (0..2) per clause."""

    picks: tuple[int, ...]
    consistent: bool


def choice_set(f: Cnf, picks: Sequence[int]) -> ChoiceSet:
    if len(picks) != f.m:
        raise ValueError(f"expected {f.m} picks, got {len(picks)}")
    if any(not 0 <= p <= 2 for p in picks):
        raise ValueError("picks must be literal positions 0..2")
    chosen = [f.clauses[i][p] for i, p in enumerate(picks)]
    consistent = not any(
        a == b.complement() for i, a in enumerate(chosen) for b in chosen[i + 1 :]
    )
    return ChoiceSet(tuple(picks), consistent)


def iter_consistent_choice_sets(f: Cnf) -> Iterator[ChoiceSet]:
    """Every consistent choice set, in lexicographic pick order.

    The order is that of ``itertools.product(range(3), repeat=f.m)`` with
    the inconsistent picks left out.  The search runs depth first over the
    clauses and tries positions 0, 1, 2 of each clause in turn.  A pick is
    dropped at once when the complement of its literal is among the earlier
    picks.  Consistency is a pairwise condition, so every extension of such
    a prefix is inconsistent too: only consistent prefixes are extended, and
    no consistent set is lost.  The worst case is still 3^m sets.
    """
    if f.m > CHOICE_CLAUSE_CAP:
        raise ValueError(f"{f.m} clauses exceed the choice-set cap {CHOICE_CLAUSE_CAP}")
    # literal ids: bit 2v for variable v, bit 2v+1 for its negation
    pos = {name: i for i, name in enumerate(f.variables)}
    ids = [tuple(2 * pos[l.variable] + l.negated for l in clause) for clause in f.clauses]
    picks = [0] * f.m

    def extend(i: int, taken: int) -> Iterator[ChoiceSet]:
        if i == f.m:
            yield ChoiceSet(tuple(picks), True)
            return
        for p, lit in enumerate(ids[i]):
            if not taken >> (lit ^ 1) & 1:
                picks[i] = p
                yield from extend(i + 1, taken | 1 << lit)

    yield from extend(0, 0)


def consistent_choice_set(f: Cnf) -> ChoiceSet | None:
    """First consistent choice set in lexicographic pick order, or None."""
    return next(iter_consistent_choice_sets(f), None)


def _satisfiable(f: Cnf) -> bool:
    """Both oracles, cross-checked; disagreement aborts the run."""
    by_assignment = sat_brute_force(f) is not None
    by_choice = consistent_choice_set(f) is not None
    if by_assignment != by_choice:
        raise RuntimeError(
            "satisfiability oracles disagree: "
            f"assignment={by_assignment} choice-set={by_choice}"
        )
    return by_assignment


@dataclass(frozen=True)
class ReductionVerdict:
    sat: bool
    member: bool
    verdict: str  # AGREE / DISAGREE / UNVERIFIED
    witness: tuple[str, ...] | None
    exact: bool


def verify_banks_reduction(f: Cnf) -> ReductionVerdict:
    """Satisfiability versus Banks membership of the decision node."""
    sat = _satisfiable(f)
    layout = banks_gadget(f)
    t = layout.tournament
    chain = banks_member(t, None, decision_node(layout))
    member = chain is not None
    return ReductionVerdict(
        sat=sat,
        member=member,
        verdict="AGREE" if sat == member else "DISAGREE",
        witness=tuple(t.names[i] for i in chain) if chain else None,
        exact=True,
    )


def verify_teq_reduction(f: Cnf) -> ReductionVerdict:
    """Satisfiability versus TEQ membership of the decision node.

    Exact up to the clause cap; beyond it the heuristic answers and the
    verdict is flagged UNVERIFIED instead of being trusted.
    """
    sat = _satisfiable(f)
    layout = teq_gadget(f)
    t = layout.tournament
    d = decision_node(layout)
    if f.m <= TEQ_EXACT_CLAUSE_CAP:
        member = d in teq_exact(t).teq_set
        verdict = "AGREE" if sat == member else "DISAGREE"
        exact = True
    else:
        member = d in teq_heuristic(t).teq_set
        verdict = "UNVERIFIED"
        exact = False
    return ReductionVerdict(sat=sat, member=member, verdict=verdict, witness=None, exact=exact)


# --- reachability and proof-trace instance checks ------------------------------


@dataclass(frozen=True)
class ReachabilityResult:
    ok: bool
    violations: tuple[str, ...]


def check_chain_reachability(layout: GadgetLayout, b: Iterable[int]) -> ReachabilityResult:
    """Every level element of ``b`` is TEQ-reachable from a chain node in ``b``.

    ``b`` must contain the decision node.
    """
    t = layout.tournament
    return _chain_reachability(layout, subset_mask(t, b), teq_solver(t))


def _chain_reachability(
    layout: GadgetLayout, mask: int, teq_of: Callable[[int], int]
) -> ReachabilityResult:
    t = layout.tournament
    if not mask >> decision_node(layout) & 1:
        raise ValueError("subset must contain the decision node")
    # a is reached once a TEQ-dominator of a within the mask is reached
    in_edges = [(1 << a, teq_of(t.cols[a] & mask)) for a in set_of(mask)]
    chain = subset_mask(t, layout.chain)
    reached = grown = chain & mask
    while True:
        for bit, e in in_edges:
            if e & grown:
                grown |= bit
        if grown == reached:
            break
        reached = grown
    missing = tuple(t.names[u] for u in sorted(set_of(mask & ~chain & ~reached)))
    return ReachabilityResult(ok=not missing, violations=missing)


def sample_chain_reachability(
    layout: GadgetLayout, samples: int, seed: int
) -> tuple[int, list[tuple[frozenset[int], ReachabilityResult]]]:
    """Run check_chain_reachability on seeded random subsets containing the decision node.

    Each alternative is included with probability 1/2.  Returns the number
    of subsets checked and the failing (subset, result) pairs.
    """
    t = layout.tournament
    d = decision_node(layout)
    teq_of = teq_solver(t)
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        b = {i for i in range(t.n) if rng.getrandbits(1)}
        b.add(d)
        res = _chain_reachability(layout, subset_mask(t, b), teq_of)
        if not res.ok:
            failures.append((frozenset(b), res))
    return samples, failures


@dataclass(frozen=True)
class ProofTraceResult:
    ok: bool
    levels: int
    failures: tuple[str, ...]


def check_proof_trace(f: Cnf, w: ChoiceSet) -> ProofTraceResult:
    """Walk the nested dominator sets of a consistent choice and check them.

    Builds the transitive chain of picked literals, separators, and the
    picks' blockers; forms the nested dominator-set tower above it; and
    checks the tower's membership pattern, the step relations between
    consecutive levels, and that the decision node sits in the TEQ of
    every level.
    """
    if not w.consistent:
        raise ValueError("choice set is inconsistent")
    if f.m > TEQ_EXACT_CLAUSE_CAP:
        raise ValueError(f"proof trace capped at {TEQ_EXACT_CLAUSE_CAP} clauses")
    layout = teq_gadget(f)
    t = layout.tournament
    d = decision_node(layout)
    n = layout.size
    failures: list[str] = []

    u: dict[int, int] = {}
    for lvl in range(1, n + 1):
        if lvl % 2 == 0:
            u[lvl] = layout.separator_node(lvl // 2)
        elif lvl % 4 == 1:
            i = (lvl + 3) // 4
            u[lvl] = layout.literal_node(i, w.picks[i - 1] + 1)
        else:
            i = (lvl + 1) // 4
            u[lvl] = layout.blocker_node(i, w.picks[i - 1] + 1)

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not t.dominates(u[i], u[j]):
                failures.append(
                    f"chain not decreasing: {t.names[u[i]]} loses to {t.names[u[j]]}"
                )

    tower: dict[int, int] = {n + 1: t.full_mask}
    for i in range(n, 0, -1):
        tower[i] = tower[i + 1] & t.cols[u[i]]
    for i in range(1, n + 1):
        if tower[i] & ~tower[i + 1] or tower[i] == tower[i + 1]:
            failures.append(f"tower not strictly nested at level {i}")

    for i in range(1, n + 2):
        for j in range(1, n + 1):
            if bool(tower[i] >> u[j] & 1) != (j < i):
                failures.append(f"level element {t.names[u[j]]} wrong in tower {i}")
        for j in range(0, n + 1):
            if bool(tower[i] >> layout.chain[j] & 1) != (j < i):
                failures.append(f"chain node c{j} wrong in tower {i}")

    empty = [k for k in range(1, n + 2) if not tower[k]]
    if empty:
        # the tower nests, so every level below an empty one is empty too
        failures.append(f"tower level {empty[-1]} is empty")
        return ProofTraceResult(ok=False, levels=n + 1, failures=tuple(failures))

    if condorcet_winner(t, set_of(tower[1])) != d:
        failures.append("decision node is not the winner of the innermost level")

    teq_of = teq_solver(t)

    def step(b: int, a: int, x: int) -> bool:
        """b => a in the TEQ relation on the mask x."""
        return bool(x >> a & 1 and teq_of(t.cols[a] & x) >> b & 1)

    for i in range(1, n + 1):
        for j in range(0, i):
            if not step(layout.chain[i], layout.chain[j], tower[i + 1]):
                failures.append(f"step relation misses c{i} => c{j} at level {i + 1}")
        if not step(u[i], layout.chain[i], tower[i + 1]):
            failures.append(
                f"step relation misses {t.names[u[i]]} => c{i} at level {i + 1}"
            )

    for k in range(1, n + 2):
        if not teq_of(tower[k]) >> d & 1:
            failures.append(f"decision node leaves the TEQ at tower level {k}")

    return ProofTraceResult(ok=not failures, levels=n + 1, failures=tuple(failures))


# --- sweeps --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    ns: tuple[int, ...]
    mode: str
    checks: tuple[str, ...]
    seed: int
    samples: int
    workers: int
    instances: int
    passes: dict[str, int]
    failures: dict[str, int]
    counterexamples: tuple[str, ...]
    duration_s: float

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())

    def serialize(self) -> str:
        """Canonical report text; independent of worker count and timing."""
        ns = ",".join(str(n) for n in self.ns)
        checks = ",".join(self.checks)
        lines = [
            f"sweep ns={ns} mode={self.mode} checks={checks} "
            f"seed={self.seed} samples={self.samples}"
        ]
        for check in self.checks:
            lines.append(
                f"check {check}: pass={self.passes[check]} fail={self.failures[check]}"
            )
        lines.extend(f"FAIL {c}" for c in self.counterexamples)
        lines.append(f"{self.instances} instances, {self.total_failures} failures")
        return "\n".join(lines) + "\n"


def parse_sweep_report(text: str) -> SweepReport:
    """Read a serialized report back; worker count and timing are not stored."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("sweep "):
        raise ValueError("line 1: expected 'sweep' header")
    fields = dict(part.split("=", 1) for part in lines[0][len("sweep "):].split())
    try:
        ns = tuple(int(x) for x in fields["ns"].split(","))
        mode = fields["mode"]
        checks = tuple(fields["checks"].split(","))
        seed = int(fields["seed"])
        samples = int(fields["samples"])
    except KeyError as exc:
        raise ValueError(f"line 1: missing header field {exc}") from None
    passes: dict[str, int] = {}
    failures: dict[str, int] = {}
    counterexamples: list[str] = []
    instances = total = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("check "):
            name, counts = line[len("check "):].split(": ", 1)
            p, f = counts.split()
            passes[name] = int(p.removeprefix("pass="))
            failures[name] = int(f.removeprefix("fail="))
        elif line.startswith("FAIL "):
            counterexamples.append(line[len("FAIL "):])
        elif line.endswith("failures"):
            head, _, _ = line.partition(" instances, ")
            instances = int(head)
            total = int(line.split(", ")[1].split()[0])
        else:
            raise ValueError(f"line {lineno}: unrecognized report line")
    if instances is None:
        raise ValueError("missing summary line")
    if set(passes) != set(checks):
        raise ValueError("per-check lines do not match the header checks")
    if total != sum(failures.values()) or len(counterexamples) != total:
        raise ValueError("failure counts are inconsistent")
    return SweepReport(
        ns=ns,
        mode=mode,
        checks=checks,
        seed=seed,
        samples=samples,
        workers=1,
        instances=instances,
        passes=passes,
        failures=failures,
        counterexamples=tuple(counterexamples),
        duration_s=0.0,
    )


def _instance_failures(t: Tournament, checks: tuple[str, ...]) -> list[str]:
    full = t.full_mask
    teq_mask, in_edges, _, _ = _pykernel.teq_exact_masks(t.rows, full)
    banks_mask = None
    if "teq-in-banks" in checks or "condorcet" in checks:
        banks_mask = _pykernel.banks_set_masks(t.rows, full)
    failed = []
    if "nonempty" in checks and teq_mask == 0:
        failed.append("nonempty")
    if "teq-in-banks" in checks and teq_mask & ~banks_mask:
        failed.append("teq-in-banks")
    if "condorcet" in checks:
        winner = next((a for a in range(t.n) if t.rows[a] | 1 << a == full), None)
        if winner is not None:
            want = 1 << winner
            if teq_mask != want or banks_mask != want:
                failed.append("condorcet")
    if "heuristic-eq" in checks:
        h_mask = _pykernel.teq_heuristic_masks(t.rows, full)[0]
        if h_mask != teq_mask:
            failed.append("heuristic-eq")
    if "single-scc" in checks:
        restricted = [in_edges[a] & teq_mask for a in range(t.n)]
        if _pykernel.scc_count_masks(teq_mask, restricted) != 1:
            failed.append("single-scc")
    return failed


def _random_seed(seed: int, n: int, i: int) -> int:
    return seed + 1_000_003 * n + i


def _sweep_task(args: tuple) -> tuple[int, dict[str, int], list[str]]:
    n, lo, hi, checks, mode, seed = args
    fail_counts = {c: 0 for c in checks}
    counterexamples: list[str] = []
    for i in range(lo, hi):
        if mode == "exhaustive":
            t = tournament_from_bits(n, i)
            encoding = f"n={n} bits={i}"
        else:
            t = random_tournament(n, _random_seed(seed, n, i))
            encoding = f"n={n} seed={_random_seed(seed, n, i)}"
        for check in _instance_failures(t, checks):
            fail_counts[check] += 1
            counterexamples.append(f"{check} {encoding}")
    return hi - lo, fail_counts, counterexamples


def sweep(
    ns: Sequence[int],
    checks: Sequence[str] = SWEEP_CHECKS,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
    workers: int = 1,
) -> SweepReport:
    """Run the selected checks over every instance and fold a report."""
    checks = tuple(sorted(set(checks)))
    for check in checks:
        if check not in SWEEP_CHECKS:
            raise ValueError(f"unknown check {check!r}")
    if not checks:
        raise ValueError("no checks selected")
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ns = tuple(ns)
    for n in ns:
        if n < 1:
            raise ValueError("sizes must be positive")
        if mode == "exhaustive" and n > ENUMERATION_CAP:
            raise ValueError(f"exhaustive sweep capped at n={ENUMERATION_CAP}")
    if mode == "random" and samples < 1:
        raise ValueError("random mode needs a positive sample count")

    tasks = []
    for n in ns:
        count = (1 << (n * (n - 1) // 2)) if mode == "exhaustive" else samples
        chunk = max(1, -(-count // workers))
        lo = 0
        while lo < count:
            hi = min(count, lo + chunk)
            tasks.append((n, lo, hi, checks, mode, seed))
            lo = hi

    start = time.perf_counter()
    if workers == 1:
        partials = [_sweep_task(task) for task in tasks]
    else:
        from multiprocessing import get_context

        with get_context("fork").Pool(workers) as pool:
            partials = pool.map(_sweep_task, tasks)
    duration = time.perf_counter() - start

    instances = 0
    failures = {c: 0 for c in checks}
    counterexamples: list[str] = []
    for count, fail_counts, examples in partials:
        instances += count
        for c in checks:
            failures[c] += fail_counts[c]
        counterexamples.extend(examples)
    passes = {c: instances - failures[c] for c in checks}
    return SweepReport(
        ns=ns,
        mode=mode,
        checks=checks,
        seed=seed,
        samples=samples if mode == "random" else 0,
        workers=workers,
        instances=instances,
        passes=passes,
        failures=failures,
        counterexamples=tuple(counterexamples),
        duration_s=duration,
    )
