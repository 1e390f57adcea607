"""Mutation gate: every mutant below must fail the fast suite of its file.

Each mutant is (file under src/tsol, exact old text, new text, reason).  The
runner copies ``src/`` to a temporary directory once per mutant, replaces
the old text (which must occur exactly once) and runs the file's suite from
SUITES against the copy with a per-mutant timeout, under the Hypothesis
profile "mutants" (no example database, a fixed seed; see conftest.py), so
two runs give the same verdicts.  A mutant is caught when the suite fails
or times out; the gate fails if any mutant survives, if any old text no
longer matches, or if the unmutated copy does not pass every suite.  A
survivor is mended by a new test, never by dropping the mutant.

Run from the repository root: ``python tests/mutants.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_SUITE = ("tests/test_teq.py", "tests/test_core.py", "tests/test_banks.py")
SUITES = {
    "_pykernel.py": KERNEL_SUITE,
    "core.py": KERNEL_SUITE,
    "reductions.py": ("tests/test_reductions.py",),
    "verification.py": ("tests/test_verification.py",),
}
TIMEOUT_S = 60

MUTANTS = (
    (
        "_pykernel.py",
        "tc = back_masks(_fewest_dominators(cols, mask), mask, cols)",
        "tc = back_masks(_fewest_dominators(cols, mask), -1, cols)",
        "the exact solver's top-cycle closure leaves its set",
    ),
    (
        "_pykernel.py",
        "key = mask | (bits & pairs[mask]) << n",
        "key = mask",
        "the exact solver's shared key drops the pair bits",
    ),
    (
        "_pykernel.py",
        "key = mask if shared is None else mask | (bits & pairs[mask]) << n",
        "key = mask",
        "the heuristic's shared key drops the pair bits",
    ),
    (
        "_pykernel.py",
        "    if not carrier & (carrier - 1):\n        return carrier",
        "    if carrier.bit_count() <= 2:\n        return carrier",
        "the one-member return in top_cycle_masks fires at two members",
    ),
    (
        "_pykernel.py",
        "    if not carrier & (carrier - 1):\n        return carrier",
        "    if not carrier & (carrier - 1):\n        return 0",
        "the one-member return in top_cycle_masks gives 0",
    ),
    (
        "_pykernel.py",
        "        if not mask:\n            return 0\n        stats[0] += 1\n        if shared",
        "        stats[0] += 1\n        if not mask:\n            return 0\n        if shared",
        "the exact solver counts the empty set",
    ),
    (
        "_pykernel.py",
        "                reached |= low\n                grown = True",
        "                reached |= low",
        "reach_masks stops after one sweep",
    ),
    (
        "_pykernel.py",
        "base = cur = _fewest_dominators(cols, mask)",
        "base = cur = mask & -mask",
        "the heuristic seeds from the lowest member only",
    ),
    (
        "_pykernel.py",
        "        while cur:\n            iterations += 1",
        "        if cur:\n            iterations += 1",
        "the heuristic stops after one round",
    ),
    (
        "_pykernel.py",
        "in_edges[a] = teq_of(cols[a] & mask)",
        "in_edges[a] = teq_of(cols[a] & base)",
        "the heuristic expands within its base, not the explored set",
    ),
    (
        "_pykernel.py",
        "found |= in_edges[a]",
        "found = in_edges[a]",
        "the heuristic keeps only a round's last expansion",
    ),
    (
        "_pykernel.py",
        "cur = found & ~base",
        "cur = found",
        "the heuristic re-expands its whole round (loops forever)",
    ),
    (
        "_pykernel.py",
        "base |= cur",
        "base = cur",
        "the heuristic base keeps only the last round's additions",
    ),
    (
        "_pykernel.py",
        "return top_cycle_masks(base, in_edges), base",
        "return base, base",
        "the heuristic returns its base as TEQ",
    ),
    (
        "_pykernel.py",
        "return top_cycle_masks(base, in_edges), base",
        "return top_cycle_masks(base, in_edges) if base & (base - 1) else 0, base",
        "a one-member heuristic base gives an empty TEQ",
    ),
    (
        "_pykernel.py",
        "incoming[ca] = True",
        "incoming[ca] = False",
        "the top cycle keeps fed components",
    ),
    (
        "_pykernel.py",
        "if pool & cols[v] == 0:",
        "if pool & rows[v] == 0:",
        "the Banks prune reads rows",
    ),
    (
        "_pykernel.py",
        "new = in_edges[a] & carrier & ~back",
        "new = in_edges[a] & ~back",
        "back_masks leaves its carrier",
    ),
    (
        "_pykernel.py",
        "            seed |= low",
        "            seed = low",
        "_fewest_dominators keeps only the last tie",
    ),
    (
        "_pykernel.py",
        "frames.append([w, in_edges[w] & carrier])",
        "frames.append([w, in_edges[w]])",
        "_tarjan walks edges that leave its carrier",
    ),
    (
        "_pykernel.py",
        "return teq, in_edges, stats[0], stats[1]",
        "return teq, in_edges, stats[0], stats[0]",
        "teq_exact_masks reports calls as subsets",
    ),
    (
        "_pykernel.py",
        "in_edges = [solve(c) for c in cols]",
        "in_edges = [solve(c) for c in cols[:-1]]",
        "teq_exact_masks skips the last column",
    ),
    (
        "_pykernel.py",
        "for a in range(len(rows)):",
        "for a in range(1, len(rows)):",
        "banks_set_masks starts at index 1",
    ),
    (
        "_pykernel.py",
        "keys.append(u - ((rows[u] & pool).bit_count() << w))",
        "keys.append(u)",
        "the Banks DFS tries candidates in index order",
    ),
    (
        "_pykernel.py",
        "keys.append(u - ((rows[u] & pool).bit_count() << w))",
        "keys.append(u - (rows[u] & pool).bit_count())",
        "the Banks DFS sort key drops the shift of the win count",
    ),
    (
        "_pykernel.py",
        "if doms == 0:",
        "if doms == 0 and pool == 0:",
        "the Banks DFS accepts maximal chains only",
    ),
    (
        "core.py",
        "            cols[i] ^= bj\n            cols[j] ^= bi\n",
        "",
        "the stepped masks flip rows but not cols",
    ),
    (
        "core.py",
        "flips[: (bits ^ (bits - 1)).bit_length()]",
        "flips[1 : (bits ^ (bits - 1)).bit_length()]",
        "the stepped masks skip the lowest changed pair",
    ),
    (
        "reductions.py",
        "own & 1 << first + (k + 1) % 3",
        "own & 1 << first + (k + 2) % 3",
        "a triple that turns the other way",
    ),
    (
        "reductions.py",
        "for p, q in permutations(range(3), 2)",
        "for p, q in combinations(range(3), 2)",
        "blockers reversed one way only",
    ),
    (
        "reductions.py",
        "if b.variable == a.variable and b.negated != a.negated:",
        "if b.variable == a.variable:",
        "equal literals reversed too",
    ),
    (
        "reductions.py",
        "        rows[j] &= ~own\n",
        "",
        "c_j that keeps beating its own level",
    ),
    (
        "reductions.py",
        "for p, q in permutations(range(3), 2)",
        "for p, q in permutations(range(3), 2) if (p, q) != (2, 1)",
        "a dropped blocker pair",
    ),
    (
        "reductions.py",
        "return _build_layout(levels, _complement_pairs(f, 2))",
        "return _build_layout(levels, list(_complement_pairs(f, 2))[1:])",
        "a dropped Banks complement pair",
    ),
    (
        "verification.py",
        "if not taken >> (lit ^ 1) & 1:",
        "if True:",
        "choice sets that ignore consistency",
    ),
    (
        "verification.py",
        "if h_mask != teq_mask:",
        "if h_mask & ~teq_mask:",
        "heuristic-eq that sees only extra members",
    ),
    (
        "verification.py",
        "if _pykernel.scc_count_masks(teq_mask, in_edges) != 1:",
        "if _pykernel.scc_count_masks(teq_mask, in_edges) > 1:",
        "single-scc that ignores zero components",
    ),
)


def run_suite(src: Path, suite: tuple[str, ...]) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for ``suite`` on the tsol package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-profile=mutants", *suite]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - start


def run_mutant(suite: tuple[str, ...], path: str | None, old: str, new: str) -> tuple[str, float]:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if path is not None:
            target = src / "tsol" / path
            text = target.read_text()
            if text.count(old) != 1:
                return "stale", 0.0
            target.write_text(text.replace(old, new))
        return run_suite(src, suite)


def main() -> int:
    start = time.perf_counter()
    for suite in dict.fromkeys(SUITES.values()):
        status, seconds = run_mutant(suite, None, "", "")
        print(f"unmutated {' '.join(suite)}: {status} ({seconds:.1f} s)", flush=True)
        if status != "pass":
            return 1
    bad = 0
    for path, old, new, reason in MUTANTS:
        status, seconds = run_mutant(SUITES[path], path, old, new)
        caught = status in ("fail", "timeout")
        bad += not caught
        verdict = "caught" if caught else "SURVIVED" if status == "pass" else "STALE"
        print(f"{verdict}: {reason} [{status}, {seconds:.1f} s]", flush=True)
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught in {total:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
