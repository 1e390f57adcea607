"""Mutation gate for the kernels: every mutant below must fail the fast suite.

Each mutant is (file under src/tsol, exact old text, new text, reason).  The
runner copies ``src/`` to a temporary directory once per mutant, replaces
the old text (which must occur exactly once) and runs SUITE against the
copy with a per-mutant timeout.  A mutant is caught when the suite fails
or times out; the gate fails if any mutant survives, if any old text no
longer matches, or if the unmutated copy does not pass.  A survivor is
mended by a new test, never by dropping the mutant.

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
SUITE = ("tests/test_teq.py", "tests/test_core.py", "tests/test_banks.py")
TIMEOUT_S = 60

MUTANTS = (
    (
        "_pykernel.py",
        "tc = back_masks(seed, mask, cols)",
        "tc = back_masks(seed, -1, cols)",
        "the exact solver's top-cycle closure leaves its set",
    ),
    (
        "_pykernel.py",
        "key = tc if shared is None else tc | (bits & pairs[tc]) << n",
        "key = tc",
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
        "        if best == 0:\n            res = seed",
        "        if best <= 1:\n            res = seed",
        "the Condorcet shortcut fires at one dominator",
    ),
    (
        "_pykernel.py",
        "                reached |= low\n                grown = True",
        "                reached |= low",
        "reach_masks stops after one sweep",
    ),
    (
        "_pykernel.py",
        "if found & ~base == 0:",
        "if found & ~cur == 0:",
        "the heuristic stops on found & ~cur (loops forever)",
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
)


def run_suite(src: Path) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for SUITE on the tsol package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *SUITE]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - start


def run_mutant(path: str | None, old: str, new: str) -> tuple[str, float]:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if path is not None:
            target = src / "tsol" / path
            text = target.read_text()
            if text.count(old) != 1:
                return "stale", 0.0
            target.write_text(text.replace(old, new))
        return run_suite(src)


def main() -> int:
    status, seconds = run_mutant(None, "", "")
    print(f"unmutated: {status} ({seconds:.1f} s)", flush=True)
    if status != "pass":
        return 1
    bad = 0
    for path, old, new, reason in MUTANTS:
        status, seconds = run_mutant(path, old, new)
        caught = status in ("fail", "timeout")
        bad += not caught
        verdict = "caught" if caught else "SURVIVED" if status == "pass" else "STALE"
        print(f"{verdict}: {reason} [{status}, {seconds:.1f} s]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
