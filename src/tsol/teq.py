"""Tournament equilibrium set: exact recursion and the minimal-dominator heuristic.

The TEQ relation on a carrier X holds b => a exactly when b is in the
TEQ of a's dominator set within X; the TEQ of X is the top cycle of that
relation.  A ``TeqResult`` carries the relation the way the kernel and
every check hold it: one in-edge mask per alternative, bit b of
``in_edges[a]`` set iff b => a.  The exact solver replaces every nested
set by its dominance top cycle, which has the same TEQ, and memoizes
those by bit pattern.  ``teq_exact`` starts a fresh memo on every call.
``teq_member``, ``teq_trace`` and the gadget checks in
``tsol.verification`` ask about many sets of one tournament and share
one memo among them: the TEQ of a set depends only on the set, so a memo
keyed by top cycle stays valid for every query on that tournament.  An
exhaustive sweep (``tsol.verification.sweep``) shares one exact and one
heuristic memo among all the tournaments of one task: the TEQ of a set
depends only on the tournament restricted to it, so each key is the set
plus the bit pattern's bits for the pairs inside it
(``tsol.core.pair_positions``), and one memo holds at most
sum over 1 <= k < n of C(n, k) * 2^C(k, 2) entries (7,300 at n = 6).  The
heuristic explores outward from the alternatives with the smallest
dominator sets.  It returns a union of minimal TEQ-retentive sets, so it
is exact wherever the queried set and every set it recurses into has one
minimal retentive set (``_pykernel.teq_heuristic_masks``); sweeps check
equality, it is never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from tsol import _pykernel
from tsol.core import Tournament, set_of, subset_mask


@dataclass(frozen=True)
class TeqStats:
    """calls: solver entries on nonempty sets (cache hits included);
    subsets: sets actually evaluated (cache misses).  The exact recursion
    shrinks every nested set to its dominance top cycle and memoizes on
    that, so a subset is the carrier or a distinct top cycle, a singleton
    one (a Condorcet winner) included.  iterations: outer loops (heuristic
    only)."""

    calls: int
    subsets: int
    iterations: int = 0


@dataclass(frozen=True)
class TeqResult:
    """The TEQ set, plus the TEQ relation on ``carrier`` as in-edge masks.

    Bit b of ``in_edges[a]`` is set iff b => a, and ``in_edges[a]`` is 0
    for a outside ``carrier`` (the convention of ``Tournament.cols``).
    """

    teq_set: frozenset[int]
    carrier: frozenset[int]
    in_edges: tuple[int, ...]
    stats: TeqStats


def teq_exact(t: Tournament, x: Iterable[int] | None = None) -> TeqResult:
    """Exact TEQ of the restriction of ``t`` to ``x``."""
    mask = subset_mask(t, x)
    if mask == 0:
        raise ValueError("empty subset")
    teq_mask, in_edges, calls, subsets = _pykernel.teq_exact_masks(t.cols, mask)
    return TeqResult(
        teq_set=set_of(teq_mask),
        carrier=set_of(mask),
        in_edges=tuple(in_edges),
        stats=TeqStats(calls=calls, subsets=subsets),
    )


def teq_solver(t: Tournament) -> Callable[[int], int]:
    """Mask -> TEQ mask on ``t`` (the empty mask gives 0), with one memo
    that lives as long as the returned function.

    On masks, b => a holds within X iff a is in X and b is in
    ``teq_of(t.cols[a] & X)``.
    """
    return _pykernel._exact_solver(t.cols, [0, 0])


def teq_member(t: Tournament, x: Iterable[int] | None, a: int) -> bool:
    mask = subset_mask(t, x)
    if a < 0 or not mask >> a & 1:
        raise ValueError(f"alternative {a} not in the queried subset")
    return bool(teq_solver(t)(mask) >> a & 1)


def teq_heuristic(t: Tournament, x: Iterable[int] | None = None) -> TeqResult:
    """Minimal-dominator-set heuristic for TEQ.

    The result's carrier is the explored base set, which can be a proper
    subset of ``x``; the top cycle of its relation is the reported TEQ set.
    """
    mask = subset_mask(t, x)
    if mask == 0:
        raise ValueError("empty subset")
    teq_mask, base_mask, in_edges, calls, subsets, iterations = (
        _pykernel.teq_heuristic_masks(t.cols, mask)
    )
    return TeqResult(
        teq_set=set_of(teq_mask),
        carrier=set_of(base_mask),
        in_edges=tuple(in_edges),
        stats=TeqStats(calls=calls, subsets=subsets, iterations=iterations),
    )


def teq_trace(
    t: Tournament, depth_limit: int = 1, teq_of: Callable[[int], int] | None = None
) -> str:
    """Deterministic indented trace of the TEQ recursion on all of ``t``
    down to a depth.

    Each line reports one dominator set and its TEQ; sets print as names
    sorted alphabetically.  Dominator-set lines are omitted for
    alternatives nobody dominates.  ``teq_of``, a ``teq_solver(t)``, shares
    its memo with the caller's other queries; by default the trace starts
    a fresh one.
    """
    if depth_limit < 0:
        raise ValueError("depth limit must be nonnegative")
    mask = t.full_mask
    if teq_of is None:
        teq_of = teq_solver(t)

    def fmt(m: int) -> str:
        return "{" + " ".join(sorted(t.names[i] for i in set_of(m))) + "}"

    lines = [f"TEQ{fmt(mask)} = {fmt(teq_of(mask))}"]

    def descend(m: int, depth: int) -> None:
        if depth > depth_limit:
            return
        for name, a in sorted((t.names[a], a) for a in set_of(m)):
            sub = t.cols[a] & m
            if not sub:
                continue
            indent = "  " * depth
            lines.append(f"{indent}D({name}) = {fmt(sub)}: TEQ = {fmt(teq_of(sub))}")
            descend(sub, depth + 1)

    descend(mask, 1)
    return "\n".join(lines) + "\n"
