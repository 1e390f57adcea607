"""Banks set membership and computation.

A chain here is a tuple of alternative indices in decreasing dominance
order (each element beats all later ones).  Membership search returns a
chain headed by the queried alternative that no outside alternative
dominates entirely; extending such a chain to an inclusion-maximal
transitive set cannot change its maximum, so the head is a Banks winner.
Worst-case time is exponential; there is no time limit at this layer.
"""

from __future__ import annotations

from tsol import _pykernel
from tsol.core import Tournament, set_of


def banks_member(t: Tournament, a: int) -> tuple[int, ...] | None:
    """Witness chain iff ``a`` is in the Banks set of ``t``."""
    if not 0 <= a < t.n:
        raise ValueError(f"alternative {a} out of range for {t.n} alternatives")
    return _pykernel.banks_member_masks(t.rows, t.cols, a)


def banks_set(t: Tournament) -> frozenset[int]:
    """Maxima of the inclusion-maximal transitive subsets of ``t``."""
    return set_of(_pykernel.banks_set_masks(t.rows, t.cols))
