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
from typing import Callable, Iterator, Sequence

from tsol import _pykernel
from tsol.banks import banks_member
from tsol.core import (
    ENUMERATION_CAP,
    masks_in_bit_order,
    pair_positions,
    random_tournament,
    set_of,
)

# unused here: bench/tracing.py wraps this name in this module (its SPANS table)
from tsol.core import tournament_from_bits  # noqa: F401
from tsol.reductions import (
    Cnf,
    GadgetLayout,
    banks_gadget,
    decision_node,
    teq_gadget,
)
from tsol.teq import teq_member, teq_solver

SAT_VARIABLE_CAP = 24
CHOICE_CLAUSE_CAP = 16
SWEEP_WORKER_CAP = 256

SWEEP_CHECKS = ("condorcet", "heuristic-eq", "nonempty", "single-scc", "teq-in-banks")


def _check_clause_cap(f: Cnf) -> None:
    if f.m > CHOICE_CLAUSE_CAP:
        raise ValueError(f"{f.m} clauses exceed the choice-set cap {CHOICE_CLAUSE_CAP}")


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


def iter_consistent_choice_sets(f: Cnf) -> Iterator[tuple[int, ...]]:
    """Every consistent choice set, in lexicographic pick order.

    A choice set is one picked literal position (0..2) per clause; it is
    consistent when no two picked literals are complementary.

    The order is that of ``itertools.product(range(3), repeat=f.m)`` with
    the inconsistent picks left out.  The search runs depth first over the
    clauses and tries positions 0, 1, 2 of each clause in turn.  A pick is
    dropped at once when the complement of its literal is among the earlier
    picks.  Consistency is a pairwise condition, so every extension of such
    a prefix is inconsistent too: only consistent prefixes are extended, and
    no consistent set is lost.  The worst case is still 3^m sets.
    """
    _check_clause_cap(f)
    # literal ids: bit 2v for variable v, bit 2v+1 for its negation
    pos = {name: i for i, name in enumerate(f.variables)}
    ids = [tuple(2 * pos[l.variable] + l.negated for l in clause) for clause in f.clauses]
    picks = [0] * f.m

    def extend(i: int, taken: int) -> Iterator[tuple[int, ...]]:
        if i == f.m:
            yield tuple(picks)
            return
        for p, lit in enumerate(ids[i]):
            if not taken >> (lit ^ 1) & 1:
                picks[i] = p
                yield from extend(i + 1, taken | 1 << lit)

    yield from extend(0, 0)


def consistent_choice_set(f: Cnf) -> tuple[int, ...] | None:
    """First consistent choice set in lexicographic pick order, or None."""
    return next(iter_consistent_choice_sets(f), None)


def _satisfiable(f: Cnf) -> bool:
    """Both oracles, cross-checked; disagreement aborts the run.

    The truth table checks its variable cap first thing; the choice-set
    cap is checked here, so a formula above it fails before the 2^v sweep.
    """
    _check_clause_cap(f)
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
    witness: tuple[str, ...] | None = None  # the Banks chain of the decision node

    @property
    def verdict(self) -> str:
        """AGREE when gadget membership matches satisfiability, else DISAGREE."""
        return "AGREE" if self.sat == self.member else "DISAGREE"


def verify_banks_reduction(f: Cnf) -> ReductionVerdict:
    """Satisfiability versus Banks membership of the decision node."""
    sat = _satisfiable(f)
    layout = banks_gadget(f)
    t = layout.tournament
    chain = banks_member(t, decision_node(layout))
    witness = tuple(t.names[i] for i in chain) if chain else None
    return ReductionVerdict(sat=sat, member=chain is not None, witness=witness)


def verify_teq_reduction(f: Cnf) -> ReductionVerdict:
    """Satisfiability versus exact TEQ membership of the decision node."""
    sat = _satisfiable(f)
    layout = teq_gadget(f)
    return ReductionVerdict(
        sat=sat, member=teq_member(layout.tournament, decision_node(layout))
    )


# --- reachability and proof-trace instance checks ------------------------------


def sample_chain_reachability(
    layout: GadgetLayout, samples: int, seed: int
) -> tuple[int, list[tuple[frozenset[int], tuple[str, ...]]]]:
    """Check, on seeded random subsets b that contain the decision node, that
    every level element of b is TEQ-reachable from a chain node in b.

    Each alternative is included with probability 1/2.  The reached set is
    one forward closure from the chain nodes in b along the TEQ relation on
    b.  Returns the number of subsets checked and, for each failing one,
    the subset and the names of its unreached elements in index order.
    """
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    t = layout.tournament
    d = decision_node(layout)
    chain = sum(1 << c for c in layout.chain)
    teq_of = teq_solver(t)
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        mask = 1 << d | sum(1 << i for i in range(t.n) if rng.getrandbits(1))
        # bit b of in_edges[a] is set iff b => a within the subset
        in_edges = {a: teq_of(t.cols[a] & mask) for a in _pykernel._mask_iter(mask)}
        missing = mask & ~_pykernel.reach_masks(chain & mask, mask, in_edges)
        if missing:
            names = tuple(t.names[u] for u in _pykernel._mask_iter(missing))
            failures.append((set_of(mask), names))
    return samples, failures


@dataclass(frozen=True)
class ProofTraceResult:
    ok: bool
    levels: int
    failures: tuple[str, ...]


def check_proof_traces(f: Cnf) -> list[tuple[tuple[int, ...], ProofTraceResult]]:
    """Proof trace of every consistent choice set, in enumeration order.

    All traces share one TEQ gadget and one TEQ memo; an unsatisfiable
    formula has no consistent choice set and gives ``[]``.  The cost grows
    with the number of consistent choice sets (at most 3^m), and the
    choice-set search's clause cap applies.
    """
    layout = teq_gadget(f)
    teq_of = teq_solver(layout.tournament)
    return [
        (picks, _proof_trace(layout, teq_of, picks)) for picks in iter_consistent_choice_sets(f)
    ]


def _proof_trace(
    layout: GadgetLayout, teq_of: Callable[[int], int], picks: tuple[int, ...]
) -> ProofTraceResult:
    """Walk the nested dominator sets of a consistent choice and check them.

    Builds the transitive chain of picked literals, separators, and the
    picks' blockers; forms the nested dominator-set tower above it; and
    checks the tower's membership pattern, the step relations between
    consecutive levels, and that the decision node sits in the TEQ of
    every level.
    """
    t = layout.tournament
    d = decision_node(layout)
    n = layout.size
    failures: list[str] = []

    # levels[4i:4i+4] are clause i's literals, a separator, clause i's
    # blockers and a separator (0-based i); u takes the picked literal
    # and its blocker, and each separator's only node.
    u = {
        k + 1: members[0] if len(members) == 1 else members[picks[k // 4]]
        for k, members in enumerate(layout.levels)
    }

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

    if not tower[1] >> d & 1 or t.cols[d] & tower[1]:
        failures.append("decision node is not the winner of the innermost level")

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


def _instance_failures(
    n: int,
    rows: Sequence[int],
    cols: Sequence[int],
    checks: tuple[str, ...],
    exact_shared: _pykernel.Shared | None = None,
    heuristic_shared: _pykernel.Shared | None = None,
) -> list[str]:
    """The checks that fail on the tournament given by its row and column masks.

    Banks is computed only as far as a check reads it: TEQ <= Banks holds
    iff every TEQ member is a Banks member, and the whole Banks set is
    compared only when a Condorcet winner exists.  ``exact_shared`` and
    ``heuristic_shared`` go to the two TEQ kernels as their ``shared``.
    """
    teq_mask, in_edges, _, _ = _pykernel.teq_exact_masks(cols, exact_shared)
    failed = []
    if "nonempty" in checks and teq_mask == 0:
        failed.append("nonempty")
    if "teq-in-banks" in checks and any(
        _pykernel.banks_member_masks(rows, cols, a) is None
        for a in _pykernel._mask_iter(teq_mask)
    ):
        failed.append("teq-in-banks")
    if "condorcet" in checks:
        winner = next((a for a in range(n) if cols[a] == 0), None)
        if winner is not None:
            want = 1 << winner
            if teq_mask != want or _pykernel.banks_set_masks(rows, cols) != want:
                failed.append("condorcet")
    if "heuristic-eq" in checks:
        h_mask = _pykernel.teq_heuristic_masks(cols, heuristic_shared)[0]
        if h_mask != teq_mask:
            failed.append("heuristic-eq")
    if "single-scc" in checks:
        if _pykernel.scc_count_masks(teq_mask, in_edges) != 1:
            failed.append("single-scc")
    return failed


def _random_seed(seed: int, n: int, i: int) -> int:
    return seed + 1_000_003 * n + i


def _sweep_task(args: tuple) -> tuple[int, dict[str, int], list[str]]:
    """Check instances ``lo..hi-1`` of one size.

    An exhaustive task shares one exact and one heuristic TEQ memo among
    all its instances, keyed by each instance's bit pattern restricted to
    the memoized set (see ``_pykernel._exact_solver``), and steps each
    instance's masks from the previous one's (``masks_in_bit_order``).
    """
    n, lo, hi, checks, mode, seed = args
    fail_counts = {c: 0 for c in checks}
    counterexamples: list[str] = []
    exhaustive = mode == "exhaustive"
    if exhaustive:
        pairs = pair_positions(n)
        exact_memo: dict[int, int] = {}
        heuristic_memo: dict[int, int] = {}
        masks = masks_in_bit_order(n, lo, hi)
    for i in range(lo, hi):
        if exhaustive:
            rows, cols = next(masks)
            failed = _instance_failures(
                n, rows, cols, checks, (exact_memo, pairs, i), (heuristic_memo, pairs, i)
            )
        else:
            t = random_tournament(n, _random_seed(seed, n, i))
            failed = _instance_failures(n, t.rows, t.cols, checks)
        if failed:
            encoding = f"bits={i}" if exhaustive else f"seed={_random_seed(seed, n, i)}"
            for check in failed:
                fail_counts[check] += 1
                counterexamples.append(f"{check} n={n} {encoding}")
    return hi - lo, fail_counts, counterexamples


def sweep(
    ns: Sequence[int],
    checks: Sequence[str] = SWEEP_CHECKS,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
    workers: int = 1,
) -> SweepReport:
    """Run the selected checks over every instance and fold a report.

    ``samples`` and ``seed`` belong to random mode; exhaustive mode refuses
    a nonzero one.
    """
    checks = tuple(sorted(set(checks)))
    ns = tuple(ns)
    for check in checks:
        if check not in SWEEP_CHECKS:
            raise ValueError(f"unknown check {check!r}")
    if not checks:
        raise ValueError("no checks selected")
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= workers <= SWEEP_WORKER_CAP:
        raise ValueError(f"workers must be between 1 and {SWEEP_WORKER_CAP}")
    if not ns:
        raise ValueError("no sizes given")
    for n in ns:
        if n < 1:
            raise ValueError("sizes must be positive")
        if mode == "exhaustive" and n > ENUMERATION_CAP:
            raise ValueError(f"exhaustive sweep capped at n={ENUMERATION_CAP}")
    if mode == "random" and samples < 1:
        raise ValueError("random mode needs a positive sample count")
    if mode == "exhaustive" and samples:
        raise ValueError("exhaustive mode takes no sample count")
    if mode == "exhaustive" and seed:
        raise ValueError("exhaustive mode takes no seed")

    tasks = []
    for n in ns:
        count = 1 << n * (n - 1) // 2 if mode == "exhaustive" else samples
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

        with get_context("fork").Pool(min(workers, len(tasks))) as pool:
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
        samples=samples,
        workers=workers,
        instances=instances,
        passes=passes,
        failures=failures,
        counterexamples=tuple(counterexamples),
        duration_s=duration,
    )
