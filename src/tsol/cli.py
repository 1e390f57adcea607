"""Command-line surface: solve, reduce, verify, sweep, and bench.

Exit codes: 0 success, 1 a DISAGREE verdict or sweep counterexamples, 2
input errors, too-deep inputs and unreadable or unwritable paths, 3 time
budget exceeded. All set outputs are sorted by name and newline-terminated.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from tsol import _pykernel
from tsol.banks import banks_member, banks_set
from tsol.core import (
    Tournament,
    format_tournament,
    parse_tournament,
    random_tournament,
    set_of,
)
from tsol.reductions import (
    banks_gadget,
    layout_labels,
    layout_to_dot,
    parse_dimacs,
    teq_gadget,
)
from tsol.teq import teq_exact, teq_heuristic, teq_solver, teq_trace
from tsol.verification import SWEEP_CHECKS, sweep, verify_banks_reduction, verify_teq_reduction

DEFAULT_SEED = 20240

METHODS = ("teq-exact", "teq-heuristic", "banks", "topcycle")

# one day, the documented limit; setitimer overflows only far above it
TIME_BUDGET_CAP_MS = 86_400_000

# sizes per --n or --sizes list, checked before a range is expanded
SIZES_CAP = 1000


def _parse_sizes(text: str) -> list[int]:
    """Sizes as comma-separated items; each item is an int or lo..hi."""
    sizes: list[int] = []
    for item in text.split(","):
        item = item.strip()
        lo_text, dots, hi_text = item.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            raise ValueError(f"bad size {item!r}: expected n or lo..hi") from None
        if hi < lo:
            raise ValueError(f"empty range {item!r}")
        if len(sizes) + hi - lo + 1 > SIZES_CAP:
            raise ValueError(f"size item {item!r} takes the size list past its cap {SIZES_CAP}")
        sizes.extend(range(lo, hi + 1))
    return sizes


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _solution_line(t: Tournament, indices) -> str:
    return " ".join(sorted(t.names[i] for i in indices)) + "\n"


def _relation_path(t: Tournament, teq_mask: int, in_edges, a: int) -> str:
    """A shortest cycle through ``a`` in the TEQ relation on the TEQ set, or
    just ``a`` when there is none; the search visits lower indices first."""
    out = [0] * t.n
    for y in _pykernel._mask_iter(teq_mask):
        for x in _pykernel._mask_iter(in_edges[y] & teq_mask):
            out[x] |= 1 << y
    parent: dict[int, int] = {}
    frontier = [a]
    seen = 1 << a
    while frontier and a not in parent:
        nxt = []
        for x in frontier:
            if out[x] >> a & 1:
                parent[a] = x
                break
            for y in _pykernel._mask_iter(out[x] & ~seen):
                seen |= 1 << y
                parent[y] = x
                nxt.append(y)
        frontier = nxt
    if a not in parent:
        return f"path: {t.names[a]}"
    path = [a]
    cur = parent[a]
    while cur != a:
        path.append(cur)
        cur = parent[cur]
    path.append(a)
    path.reverse()
    return "path: " + " => ".join(t.names[i] for i in path)


def _teq_masks(t: Tournament, method: str, teq_of) -> tuple[int, tuple[int, ...]]:
    """The TEQ of all of ``t`` and its relation's in-edges, as masks.  A
    traced exact solve reads both from the trace's solver ``teq_of``, so the
    exact recursion runs once."""
    if method == "teq-exact" and teq_of is not None:
        return teq_of(t.full_mask), tuple(teq_of(c) for c in t.cols)
    res = teq_exact(t) if method == "teq-exact" else teq_heuristic(t)
    return sum(1 << a for a in res.teq_set), res.in_edges


def _solve_text(t: Tournament, args) -> str:
    method = args.method
    teq_of = teq_solver(t) if args.trace is not None else None
    out: list[str] = []
    if args.member is not None:
        a = t.index(args.member)
        if method == "banks":
            chain = banks_member(t, a)
            out.append("true\n" if chain is not None else "false\n")
            if chain is not None:
                out.append("chain: " + " > ".join(t.names[i] for i in chain) + "\n")
        elif method in ("teq-exact", "teq-heuristic"):
            teq_mask, in_edges = _teq_masks(t, method, teq_of)
            member = teq_mask >> a & 1
            out.append("true\n" if member else "false\n")
            if member:
                out.append(_relation_path(t, teq_mask, in_edges, a) + "\n")
        else:
            seed = _pykernel._fewest_dominators(t.cols, t.full_mask)
            tc = _pykernel.back_masks(seed, t.full_mask, t.cols)
            out.append("true\n" if tc >> a & 1 else "false\n")
    else:
        if method == "banks":
            chosen = banks_set(t)
        elif method in ("teq-exact", "teq-heuristic"):
            chosen = set_of(_teq_masks(t, method, teq_of)[0])
        else:
            seed = _pykernel._fewest_dominators(t.cols, t.full_mask)
            chosen = set_of(_pykernel.back_masks(seed, t.full_mask, t.cols))
        out.append(_solution_line(t, chosen))
    if teq_of is not None:
        out.append(teq_trace(t, depth_limit=args.trace, teq_of=teq_of))
    return "".join(out)


class _BudgetExceeded(Exception):
    """Raised by the SIGALRM handler when a solve's time budget runs out."""


def _budget_alarm(signum, frame):
    raise _BudgetExceeded


def cmd_solve(args) -> int:
    if args.trace is not None:
        if args.method not in ("teq-exact", "teq-heuristic"):
            raise ValueError("--trace requires a teq method")
        if args.trace < 0:
            raise ValueError("--trace depth must be nonnegative")
    if args.time_budget_ms < 0:
        raise ValueError("--time-budget-ms must be nonnegative")
    if args.time_budget_ms > TIME_BUDGET_CAP_MS:
        raise ValueError(f"--time-budget-ms exceeds the cap {TIME_BUDGET_CAP_MS} (one day)")
    t = parse_tournament(Path(args.input).read_text())
    if args.time_budget_ms:
        import signal

        if not hasattr(signal, "setitimer"):
            raise ValueError("--time-budget-ms needs signal.setitimer, which this platform lacks")
        previous = signal.signal(signal.SIGALRM, _budget_alarm)
        start = time.perf_counter()
        try:
            try:  # the alarm can land on any bytecode, so the catch covers the cancel too
                signal.setitimer(signal.ITIMER_REAL, args.time_budget_ms / 1000.0)
                text = _solve_text(t, args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _BudgetExceeded:
            elapsed = (time.perf_counter() - start) * 1000.0
            sys.stdout.write(
                f"timeout method={args.method} budget_ms={args.time_budget_ms} "
                f"elapsed_ms={elapsed:.0f}\n"
            )
            return 3
        finally:
            signal.signal(signal.SIGALRM, previous)
    else:
        text = _solve_text(t, args)
    sys.stdout.write(text)
    return 0


def cmd_reduce(args) -> int:
    f = parse_dimacs(Path(args.input).read_text())
    layout = banks_gadget(f) if args.target == "banks" else teq_gadget(f)
    _write_output(args.output, format_tournament(layout.tournament))
    if args.labels:
        Path(args.labels).write_text(layout_labels(layout))
    if args.dot:
        Path(args.dot).write_text(layout_to_dot(layout))
    return 0


def cmd_verify(args) -> int:
    f = parse_dimacs(Path(args.input).read_text())
    verdict = verify_banks_reduction(f) if args.target == "banks" else verify_teq_reduction(f)
    sat = "true" if verdict.sat else "false"
    member = "true" if verdict.member else "false"
    sys.stdout.write(f"SAT={sat} MEMBER={member} VERDICT={verdict.verdict}\n")
    return 0 if verdict.verdict == "AGREE" else 1


def cmd_sweep(args) -> int:
    # the seed belongs to random mode; given in exhaustive mode, sweep() refuses it
    seed = args.seed
    if seed is None:
        seed = DEFAULT_SEED if args.random else 0
    report = sweep(
        _parse_sizes(args.n),
        checks=args.checks.split(",") if args.checks is not None else SWEEP_CHECKS,
        mode="random" if args.random else "exhaustive",
        samples=args.samples,
        seed=seed,
        workers=args.workers,
    )
    _write_output(args.output, report.serialize())
    print(f"duration: {report.duration_s * 1000.0:.0f} ms", file=sys.stderr)
    return 1 if report.total_failures else 0


def _bench_rows(sizes, samples, seed):
    import statistics

    rows = []
    for n in sizes:
        ts = [random_tournament(n, seed + 7919 * n + i) for i in range(samples)]
        for method in ("teq-exact", "teq-heuristic"):
            millis = []
            calls = []
            for t in ts:
                t0 = time.perf_counter()
                if method == "teq-exact":
                    ncalls = _pykernel.teq_exact_masks(t.cols)[2]
                else:
                    ncalls = _pykernel.teq_heuristic_masks(t.cols)[3]
                millis.append((time.perf_counter() - t0) * 1000.0)
                calls.append(ncalls)
            rows.append(
                (
                    n,
                    method,
                    statistics.mean(millis),
                    statistics.median(millis),
                    statistics.mean(calls),
                    statistics.median(calls),
                )
            )
    return rows


def cmd_bench(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    rows = _bench_rows(_parse_sizes(args.sizes), args.samples, args.seed)
    header = ("size", "method", "mean_ms", "median_ms", "mean_calls", "median_calls")
    table = [header]
    for n, method, mean_ms, med_ms, mean_calls, med_calls in rows:
        table.append(
            (
                str(n),
                method,
                f"{mean_ms:.3f}",
                f"{med_ms:.3f}",
                f"{mean_calls:.1f}",
                f"{med_calls:.1f}",
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    ]
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsol",
        description="Tournament solutions, 3CNF gadget reductions, and verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a solution set for a tournament file")
    p_solve.add_argument("--input", required=True, help="tournament text file")
    p_solve.add_argument("--method", choices=METHODS, default="teq-exact")
    p_solve.add_argument("--member", help="report membership of one alternative")
    p_solve.add_argument("--trace", type=int, help="also print a TEQ recursion trace")
    p_solve.add_argument("--time-budget-ms", type=int, default=0)
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="compile a DIMACS 3CNF into a gadget tournament")
    p_reduce.add_argument("--input", required=True, help="DIMACS CNF file")
    p_reduce.add_argument("--target", choices=("banks", "teq"), required=True)
    p_reduce.add_argument("--output", help="tournament file (default stdout)")
    p_reduce.add_argument("--labels", help="write a name<TAB>role sidecar")
    p_reduce.add_argument("--dot", help="write ranked DOT")
    p_reduce.set_defaults(func=cmd_reduce)

    p_verify = sub.add_parser("verify", help="check satisfiability against gadget membership")
    p_verify.add_argument("--input", required=True, help="DIMACS CNF file")
    p_verify.add_argument("--target", choices=("banks", "teq"), required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run property checks over many tournaments")
    p_sweep.add_argument("--n", required=True, help="sizes, e.g. 3 or 3..6 or 3,5")
    mode = p_sweep.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--random", action="store_true")
    p_sweep.add_argument("--samples", type=int, default=0, help="instances per size (random mode)")
    p_sweep.add_argument("--checks", help=f"comma list from {','.join(SWEEP_CHECKS)}")
    p_sweep.add_argument(
        "--seed", type=int, help=f"random mode only (default {DEFAULT_SEED})"
    )
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--output", help="report file (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", help="time teq-exact against teq-heuristic")
    p_bench.add_argument("--sizes", required=True, help="e.g. 10..14 or 10,12,14")
    p_bench.add_argument("--samples", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_bench.add_argument("--output", help="table file (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, RecursionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
