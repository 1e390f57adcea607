"""Each workload check accepts the program's answers and rejects corrupted ones.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
os.environ["TSOL_BACKEND"] = "python"
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from reference import reference_teq, satisfiable  # noqa: E402
from tsol.core import enumerate_tournaments, parse_tournament  # noqa: E402
from tsol.teq import teq_exact  # noqa: E402
from tsol.verification import SWEEP_CHECKS, SweepReport  # noqa: E402

SEED = 3


@pytest.fixture
def small(monkeypatch):
    """Fewer inputs per workload so the checks' references stay quick."""
    monkeypatch.setattr(workloads, "RANDOM_INPUTS", 3)
    monkeypatch.setattr(workloads, "GADGET_INPUTS", 3)
    monkeypatch.setattr(workloads, "UNSAT_VARIANTS", 1)
    monkeypatch.setattr(workloads, "SAT_INPUTS", 2)


def run(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(SEED, tmp_path)
    return wl, inputs, [(i, wl.op(item)) for i, item in enumerate(inputs)]


def test_reference_teq_matches_definition_on_small_tournaments():
    fig1 = parse_tournament((BENCH.parent / "tests" / "data" / "fig1.txt").read_text())
    beats = workloads.beats_of_rows(fig1.rows, fig1.n)
    assert reference_teq(beats) == {fig1.index(x) for x in "abc"}
    for n in range(1, 6):
        for t in enumerate_tournaments(n):
            assert reference_teq(workloads.beats_of_rows(t.rows, t.n)) == teq_exact(t).teq_set


def test_truth_table():
    assert not satisfiable(workloads.canonical_unsat())
    assert satisfiable(workloads.canonical_unsat()[1:])
    assert not satisfiable(workloads.unsat_variant(random.Random(1)))


def test_random_solve_check(small, tmp_path):
    wl, inputs, outputs = run("random-solve", tmp_path)
    assert wl.check(SEED, inputs, outputs) == []
    code, line = outputs[0][1]
    dropped = " ".join(line.split()[1:]) + "\n"
    assert wl.check(SEED, inputs, [(0, (code, dropped))])
    assert wl.check(SEED, inputs, [(0, (1, line))])


def test_gadget_teq_check(small, tmp_path):
    wl, inputs, outputs = run("gadget-teq", tmp_path)
    assert wl.check(SEED, inputs, outputs) == []
    i, teq = outputs[0]
    d = inputs[i][1].names.index("d")
    # the decision node leaves TEQ although the formula is satisfiable
    assert wl.check(SEED, inputs, [(i, teq - {d})])
    # a wrong set that keeps d is caught by the reference on the sampled inputs
    sampled = random.Random(SEED).sample(range(len(inputs)), 2)
    j, teq_j = outputs[sampled[0]]
    wrong = teq_j - {max(teq_j)} if len(teq_j) > 1 else teq_j | {1}
    assert wl.check(SEED, inputs, [(j, wrong)])


def test_banks_verify_check(small, tmp_path):
    wl, inputs, outputs = run("banks-verify", tmp_path)
    assert wl.check(SEED, inputs, outputs) == []
    assert outputs[0][1] == (0, "SAT=false MEMBER=false VERDICT=AGREE\n")
    for bad in (
        "SAT=true MEMBER=true VERDICT=AGREE\n",
        "SAT=false MEMBER=true VERDICT=AGREE\n",
        "SAT=false MEMBER=false VERDICT=DISAGREE\n",
    ):
        assert wl.check(SEED, inputs, [(0, (0, bad))])
    sat_index = len(inputs) - 1
    assert outputs[sat_index][1] == (0, "SAT=true MEMBER=true VERDICT=AGREE\n")
    assert wl.check(SEED, inputs, [(sat_index, (0, "SAT=false MEMBER=false VERDICT=AGREE\n"))])


def test_sweep_check():
    wl = workloads.WORKLOADS["sweep-exhaustive"]
    checks = tuple(sorted(SWEEP_CHECKS))
    n = workloads.SWEEP_INSTANCES
    good = SweepReport(
        ns=(6,), mode="exhaustive", checks=checks, seed=0, samples=0, workers=1,
        instances=n, passes={c: n for c in checks}, failures={c: 0 for c in checks},
        counterexamples=(), duration_s=1.0,
    )
    assert wl.check(SEED, [[6]], [(0, good)]) == []
    failing = dataclasses.replace(
        good,
        passes={**good.passes, "nonempty": n - 1},
        failures={**good.failures, "nonempty": 1},
        counterexamples=("nonempty n=6 bits=5",),
    )
    assert wl.check(SEED, [[6]], [(0, failing)])
    assert wl.check(SEED, [[6]], [(0, dataclasses.replace(good, instances=n - 1))])
    assert wl.check(SEED, [[6]], [(0, dataclasses.replace(good, checks=checks[:-1]))])
