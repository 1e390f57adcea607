"""Banks set membership and computation.

A chain here is a tuple of alternative indices in decreasing dominance
order (each element beats all later ones).  Membership search returns a
chain headed by the queried alternative that no outside alternative
dominates entirely; extending such a chain to an inclusion-maximal
transitive set cannot change its maximum, so the head is a Banks winner.
Worst-case time is exponential; there is no time limit at this layer.
"""

from __future__ import annotations

from typing import Iterable

from tsol import _pykernel
from tsol.core import Tournament, set_of, subset_mask


def is_top_extendable(
    t: Tournament, chain: tuple[int, ...], x: Iterable[int] | None = None
) -> int | None:
    """Lowest-index alternative in ``x`` dominating every chain element, if any."""
    mask = subset_mask(t, x)
    _check_chain(t, chain, mask)
    doms = mask
    for c in chain:
        doms &= t.cols[c]
    if doms == 0:
        return None
    return (doms & -doms).bit_length() - 1


def _check_chain(t: Tournament, chain: tuple[int, ...], mask: int) -> None:
    if not chain:
        raise ValueError("chain must be nonempty")
    for c in chain:
        if not mask >> c & 1:
            raise ValueError(f"chain element {c} outside the carrier")
    for i, c in enumerate(chain):
        for d in chain[i + 1 :]:
            if not t.dominates(c, d):
                raise ValueError("chain is not in decreasing dominance order")


def banks_member(
    t: Tournament, x: Iterable[int] | None, a: int
) -> tuple[int, ...] | None:
    """Witness chain iff ``a`` is in the Banks set of the restriction to ``x``."""
    mask = subset_mask(t, x)
    if a < 0 or not mask >> a & 1:
        raise ValueError(f"alternative {a} not in the queried subset")
    chain = _pykernel.banks_member_masks(t.rows, t.cols, mask, a)
    return tuple(chain) if chain is not None else None


def banks_set(t: Tournament, x: Iterable[int] | None = None) -> frozenset[int]:
    """Maxima of the inclusion-maximal transitive subsets of the restriction."""
    mask = subset_mask(t, x)
    if mask == 0:
        raise ValueError("empty subset")
    return set_of(_pykernel.banks_set_masks(t.rows, t.cols, mask))
