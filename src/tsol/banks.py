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


def banks_member(
    t: Tournament, x: Iterable[int] | None, a: int
) -> tuple[int, ...] | None:
    """Witness chain iff ``a`` is in the Banks set of the restriction to ``x``."""
    mask = subset_mask(t, x)
    if a < 0 or not mask >> a & 1:
        raise ValueError(f"alternative {a} not in the queried subset")
    return _pykernel.banks_member_masks(t.rows, t.cols, mask, a)


def banks_set(t: Tournament, x: Iterable[int] | None = None) -> frozenset[int]:
    """Maxima of the inclusion-maximal transitive subsets of the restriction."""
    mask = subset_mask(t, x)
    if mask == 0:
        raise ValueError("empty subset")
    return set_of(_pykernel.banks_set_masks(t.rows, t.cols, mask))
