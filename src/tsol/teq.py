"""Tournament equilibrium set: exact recursion and the minimal-dominator heuristic.

The TEQ relation on a carrier X holds b => a exactly when b is in the TEQ
of a's dominator set within X; the TEQ of X is the top cycle of that
relation.  The exact solver replaces every nested set by its dominance top
cycle, which has the same TEQ, and memoizes those by bit pattern.
``teq_exact`` starts a fresh memo on every call.  ``teq_member``,
``teq_trace`` and the gadget checks in ``tsol.verification`` ask about
many sets of one tournament and share one memo among them: the TEQ of a
set depends only on the set, so a memo keyed by top cycle stays valid for
every query on that tournament.  The heuristic explores outward from the
alternatives with the smallest dominator sets and, on every input seen so
far, matches the exact set; equality is checked by sweeps, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from tsol import _pykernel
from tsol.core import Relation, Tournament, set_of, subset_mask


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
    teq_set: frozenset[int]
    teq_relation: Relation
    stats: TeqStats


def _relation_from_in_edges(carrier_mask: int, in_edges: list[int]) -> Relation:
    carrier = set_of(carrier_mask)
    pairs = set()
    for a in carrier:
        e = in_edges[a]
        while e:
            b = (e & -e).bit_length() - 1
            e &= e - 1
            pairs.add((b, a))
    return Relation(carrier, frozenset(pairs))


def teq_exact(t: Tournament, x: Iterable[int] | None = None) -> TeqResult:
    """Exact TEQ of the restriction of ``t`` to ``x``."""
    mask = t.full_mask if x is None else subset_mask(t, x)
    if mask == 0:
        raise ValueError("empty subset")
    teq_mask, in_edges, calls, subsets = _pykernel.teq_exact_masks(t.rows, mask)
    return TeqResult(
        teq_set=set_of(teq_mask),
        teq_relation=_relation_from_in_edges(mask, in_edges),
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
    mask = t.full_mask if x is None else subset_mask(t, x)
    if not mask >> a & 1:
        raise ValueError(f"alternative {a} not in the queried subset")
    return bool(teq_solver(t)(mask) >> a & 1)


def teq_heuristic(t: Tournament, x: Iterable[int] | None = None) -> TeqResult:
    """Minimal-dominator-set heuristic for TEQ.

    The returned relation's carrier is the explored base set, which can be
    a proper subset of ``x``; its top cycle is the reported TEQ set.
    """
    mask = t.full_mask if x is None else subset_mask(t, x)
    if mask == 0:
        raise ValueError("empty subset")
    teq_mask, base_mask, in_edges, calls, subsets, iterations = (
        _pykernel.teq_heuristic_masks(t.rows, mask)
    )
    return TeqResult(
        teq_set=set_of(teq_mask),
        teq_relation=_relation_from_in_edges(base_mask, in_edges),
        stats=TeqStats(calls=calls, subsets=subsets, iterations=iterations),
    )


def teq_trace(
    t: Tournament, x: Iterable[int] | None = None, depth_limit: int = 1
) -> str:
    """Deterministic indented trace of the TEQ recursion down to a depth.

    Each line reports one dominator set and its TEQ; sets print as names
    sorted alphabetically.  Dominator-set lines are omitted for
    alternatives nobody dominates.
    """
    if depth_limit < 0:
        raise ValueError("depth limit must be nonnegative")
    mask = t.full_mask if x is None else subset_mask(t, x)
    if mask == 0:
        raise ValueError("empty subset")
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
