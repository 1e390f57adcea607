"""Tournaments, relations, and the order-theoretic primitives on them.

A tournament is a complete, irreflexive, antisymmetric dominance relation
over a list of named alternatives.  Dominance is stored as one bitmask row
per alternative (``rows[i]`` has bit ``j`` set iff ``i`` beats ``j``), so
dominator-set and restriction operations are word-parallel ANDs.  All
objects are immutable; every operation here is a pure function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from tsol import _pykernel

ENUMERATION_CAP = 7

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def default_names(n: int) -> tuple[str, ...]:
    """Deterministic alternative names: single letters up to 26, else a0..a{n-1}."""
    if n <= len(_LETTERS):
        return tuple(_LETTERS[:n])
    return tuple(f"a{i}" for i in range(n))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


@dataclass(frozen=True)
class Tournament:
    """Alternatives plus a complete irreflexive antisymmetric dominance matrix."""

    names: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.names)
        if n == 0:
            raise ValueError("tournament needs at least one alternative")
        if len(self.rows) != n:
            raise ValueError("one dominance row per alternative required")
        seen = set()
        for name in self.names:
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"bad alternative name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate alternative name {name!r}")
            seen.add(name)
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} has bits outside 0..{n - 1}")
            if row >> i & 1:
                raise ValueError(f"alternative {self.names[i]} dominates itself")
        for i in range(n):
            for j in range(i + 1, n):
                fwd = self.rows[i] >> j & 1
                rev = self.rows[j] >> i & 1
                if fwd == rev:
                    raise ValueError(
                        f"pair ({self.names[i]}, {self.names[j]}) must be "
                        f"dominated in exactly one direction"
                    )

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Column masks: ``cols[i]`` has bit ``j`` set iff j beats i."""
        cols = [0] * self.n
        for j, row in enumerate(self.rows):
            for i in _bits(row):
                cols[i] |= 1 << j
        return tuple(cols)

    def dominates(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown alternative {name!r}") from None


@dataclass(frozen=True)
class Relation:
    """A directed relation over a subset of alternative indices.

    Unlike tournaments, relations are neither complete nor irreflexive in
    general; reflexive-transitive closures live here too.
    """

    carrier: frozenset[int]
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for a, b in self.pairs:
            if a not in self.carrier or b not in self.carrier:
                raise ValueError(f"pair ({a}, {b}) leaves the carrier")


def subset_mask(t: Tournament, x: Iterable[int]) -> int:
    """Validate an index subset against ``t`` and pack it into a mask."""
    m = 0
    for i in x:
        if not 0 <= i < t.n:
            raise ValueError(f"index {i} out of range for {t.n} alternatives")
        m |= 1 << i
    return m


def restrict(t: Tournament, x: Iterable[int]) -> Tournament:
    """Sub-tournament induced by ``x``, keeping the original name order."""
    mask = subset_mask(t, x)
    if mask == 0:
        raise ValueError("cannot restrict to the empty set")
    keep = sorted(_bits(mask))
    pos = {old: new for new, old in enumerate(keep)}
    names = tuple(t.names[i] for i in keep)
    rows = []
    for old in keep:
        row = 0
        for j in _bits(t.rows[old] & mask):
            row |= 1 << pos[j]
        rows.append(row)
    return Tournament(names, tuple(rows))


def dominators(t: Tournament, x: Iterable[int], a: int) -> frozenset[int]:
    """Alternatives within ``x`` that beat ``a``."""
    mask = subset_mask(t, x)
    if not mask >> a & 1:
        raise ValueError(f"alternative {a} not in the queried subset")
    return set_of(t.cols[a] & mask)


def condorcet_winner(t: Tournament, x: Iterable[int]) -> int | None:
    """The alternative in ``x`` beating all others in ``x``, if it exists."""
    mask = subset_mask(t, x)
    if mask == 0:
        raise ValueError("empty subset has no winner")
    for a in _bits(mask):
        if t.cols[a] & mask == 0:
            return a
    return None


def is_transitive(t: Tournament, x: Iterable[int]) -> bool:
    """True iff dominance restricted to ``x`` is transitive (no 3-cycle)."""
    mask = subset_mask(t, x)
    for a in _bits(mask):
        da = t.rows[a] & mask
        for b in _bits(da):
            if t.rows[b] & mask & ~da:
                return False
    return True


def transitive_closure(r: Relation) -> Relation:
    """Reflexive-transitive closure of ``r`` over its carrier."""
    out = {a: 0 for a in r.carrier}
    for a, b in r.pairs:
        out[a] |= 1 << b
    for k in r.carrier:
        kbit = 1 << k
        reach_k = out[k]
        for a in r.carrier:
            if out[a] & kbit:
                out[a] |= reach_k
    pairs = {(a, a) for a in r.carrier}
    for a in r.carrier:
        for b in _bits(out[a]):
            pairs.add((a, b))
    return Relation(r.carrier, frozenset(pairs))


def top_cycle(r: Relation) -> frozenset[int]:
    """Maximal elements of the asymmetric part of the closure of ``r``.

    Computed as the union of the source components of the condensation,
    which is the same set.
    """
    if not r.carrier:
        raise ValueError("top cycle of an empty carrier is undefined")
    carrier_mask = mask_of(r.carrier)
    in_edges: dict[int, int] = {a: 0 for a in r.carrier}
    for a, b in r.pairs:
        in_edges[b] |= 1 << a
    return set_of(_pykernel.top_cycle_masks(carrier_mask, in_edges))


def dominance_relation(t: Tournament, x: Iterable[int] | None = None) -> Relation:
    """The dominance relation of ``t`` restricted to ``x`` as a Relation."""
    mask = t.full_mask if x is None else subset_mask(t, x)
    carrier = set_of(mask)
    pairs = set()
    for a in carrier:
        for b in _bits(t.rows[a] & mask):
            pairs.add((a, b))
    return Relation(carrier, frozenset(pairs))


def tournament_from_bits(n: int, bits: int, names: tuple[str, ...] | None = None) -> Tournament:
    """Build the labeled tournament encoded by an upper-triangle bit pattern.

    Pair ``k`` in the lexicographic listing of ``(i, j)`` with ``i < j``
    takes orientation ``i beats j`` iff bit ``k`` of ``bits`` is set.
    """
    if n < 1:
        raise ValueError("need at least one alternative")
    pair_count = n * (n - 1) // 2
    if bits < 0 or bits >> pair_count:
        raise ValueError(f"bit pattern out of range for n={n}")
    rows = [0] * n
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if bits >> k & 1:
            rows[i] |= 1 << j
        else:
            rows[j] |= 1 << i
    return Tournament(names or default_names(n), tuple(rows))


def tournament_to_bits(t: Tournament) -> int:
    """Inverse of ``tournament_from_bits`` for the same pair ordering."""
    bits = 0
    for k, (i, j) in enumerate(combinations(range(t.n), 2)):
        if t.dominates(i, j):
            bits |= 1 << k
    return bits


def enumerate_tournaments(n: int, cap: int = ENUMERATION_CAP) -> Iterator[Tournament]:
    """All labeled tournaments on ``n`` alternatives, ordered by bit pattern."""
    if not 1 <= n <= cap:
        raise ValueError(f"n={n} outside the enumeration cap 1..{cap}")
    names = default_names(n)
    for bits in range(1 << (n * (n - 1) // 2)):
        yield tournament_from_bits(n, bits, names)


def random_tournament(n: int, seed: int) -> Tournament:
    """Orient each pair with a fair coin from a Mersenne-Twister stream.

    The same ``(n, seed)`` always produces the same tournament.
    """
    if n < 1:
        raise ValueError("need at least one alternative")
    rng = random.Random(seed)
    rows = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.getrandbits(1):
            rows[i] |= 1 << j
        else:
            rows[j] |= 1 << i
    return Tournament(default_names(n), tuple(rows))


# --- text and DOT formats ---------------------------------------------------


def format_tournament(t: Tournament) -> str:
    """Bit-exact text format: header, names, then a 0/1/- matrix."""
    lines = [f"tournament {t.n}", " ".join(t.names)]
    for i in range(t.n):
        lines.append(
            "".join(
                "-" if i == j else ("1" if t.dominates(i, j) else "0")
                for j in range(t.n)
            )
        )
    return "\n".join(lines) + "\n"


def parse_tournament(text: str) -> Tournament:
    """Parse the tournament text format; errors carry 1-based line numbers."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: empty input")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "tournament":
        raise ValueError("line 1: expected header 'tournament <n>'")
    try:
        n = int(head[1])
    except ValueError:
        raise ValueError("line 1: alternative count is not an integer") from None
    if n < 1:
        raise ValueError("line 1: alternative count must be positive")
    if len(lines) < n + 2:
        raise ValueError(f"line {len(lines)}: expected {n + 2} lines, got {len(lines)}")
    names = tuple(lines[1].split())
    if len(names) != n:
        raise ValueError(f"line 2: expected {n} names, got {len(names)}")
    rows = [0] * n
    for i in range(n):
        lineno = i + 3
        row = lines[i + 2].strip()
        if len(row) != n:
            raise ValueError(f"line {lineno}: expected {n} matrix entries")
        for j, ch in enumerate(row):
            if i == j:
                if ch != "-":
                    raise ValueError(f"line {lineno}: diagonal entry must be '-'")
            elif ch == "1":
                rows[i] |= 1 << j
            elif ch != "0":
                raise ValueError(f"line {lineno}: bad matrix entry {ch!r}")
    try:
        return Tournament(names, tuple(rows))
    except ValueError as exc:
        raise ValueError(f"line 3: {exc}") from None


def tournament_to_dot(t: Tournament) -> str:
    """DOT digraph with one edge per dominant pair."""
    lines = ["digraph tournament {"]
    for name in t.names:
        lines.append(f'  "{name}";')
    for i in range(t.n):
        for j in _bits(t.rows[i]):
            lines.append(f'  "{t.names[i]}" -> "{t.names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
