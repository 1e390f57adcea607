"""Tournaments: validation, construction, enumeration, and text formats.

A tournament is a complete, irreflexive, antisymmetric dominance relation
over a list of named alternatives.  Dominance is stored as one bitmask row
per alternative (``rows[i]`` has bit ``j`` set iff ``i`` beats ``j``), and
validation derives the matching columns.  Subsets travel as masks too;
the top cycle and the solution concepts are computed on masks in
``tsol._pykernel``.  All objects are immutable; every operation here is a
pure function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from tsol._pykernel import _mask_iter

ENUMERATION_CAP = 7

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def default_names(n: int) -> tuple[str, ...]:
    """Deterministic alternative names: single letters up to 26, else a0..a{n-1}."""
    if n <= len(_LETTERS):
        return tuple(_LETTERS[:n])
    return tuple(f"a{i}" for i in range(n))


def set_of(mask: int) -> frozenset[int]:
    return frozenset(_mask_iter(mask))


@dataclass(frozen=True)
class Tournament:
    """Alternatives plus a complete irreflexive antisymmetric dominance matrix.

    ``cols`` is derived from ``rows`` during validation: ``cols[i]`` has
    bit ``j`` set iff j beats i.
    """

    names: tuple[str, ...]
    rows: tuple[int, ...]
    cols: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        cols = [0] * n
        for j, row in enumerate(self.rows):
            bit = 1 << j
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= bit
                row ^= low
        # i and j are oriented exactly one way iff bit j differs between
        # rows[i] and cols[i]; report the first bad pair (i, j) with i < j.
        for i, (row, col) in enumerate(zip(self.rows, cols)):
            later = full >> i + 1 << i + 1
            bad = later & ~(row ^ col)
            if bad:
                j = (bad & -bad).bit_length() - 1
                raise ValueError(
                    f"pair ({self.names[i]}, {self.names[j]}) must be "
                    f"dominated in exactly one direction"
                )
        object.__setattr__(self, "cols", tuple(cols))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def dominates(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown alternative {name!r}") from None


def subset_mask(t: Tournament, x: Iterable[int] | None) -> int:
    """Validate an index subset against ``t`` and pack it into a mask;
    ``None`` stands for all of ``t``."""
    if x is None:
        return t.full_mask
    m = 0
    for i in x:
        if not 0 <= i < t.n:
            raise ValueError(f"index {i} out of range for {t.n} alternatives")
        m |= 1 << i
    return m


def tournament_from_bits(n: int, bits: int) -> Tournament:
    """Build the labeled tournament encoded by an upper-triangle bit pattern.

    Pair ``k`` in the lexicographic listing of ``(i, j)`` with ``i < j``
    takes orientation ``i beats j`` iff bit ``k`` of ``bits`` is set.
    """
    if n < 1:
        raise ValueError("need at least one alternative")
    pair_count = n * (n - 1) // 2
    if bits < 0 or bits >> pair_count:
        raise ValueError(f"bit pattern out of range for n={n}")
    rows, _ = masks_from_bits(n, bits)
    return Tournament(default_names(n), tuple(rows))


def masks_from_bits(n: int, bits: int) -> tuple[list[int], list[int]]:
    """The ``rows`` and ``cols`` masks of the pattern ``tournament_from_bits``
    reads, for ``0 <= bits < 2**(n*(n-1)//2)``, unchecked.

    Each pair is oriented exactly once, so the masks always describe a
    tournament and need no validation.
    """
    rows = [0] * n
    cols = [0] * n
    for k, (i, j) in enumerate(combinations(range(n), 2)):
        if bits >> k & 1:
            rows[i] |= 1 << j
            cols[j] |= 1 << i
        else:
            rows[j] |= 1 << i
            cols[i] |= 1 << j
    return rows, cols


def pair_positions(n: int) -> list[int]:
    """For each set X of ``0..n-1``, the mask of the bit positions that
    ``masks_from_bits`` reads for the pairs inside X.

    ``bits & pair_positions(n)[X]`` fixes the tournament of ``bits``
    restricted to X, and nothing else.
    """
    pairs = [1 << i | 1 << j for i, j in combinations(range(n), 2)]
    return [
        sum(1 << k for k, pair in enumerate(pairs) if x & pair == pair)
        for x in range(1 << n)
    ]


def enumerate_tournaments(n: int) -> Iterator[Tournament]:
    """All labeled tournaments on ``n`` alternatives, ordered by bit pattern."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"n={n} outside the enumeration cap 1..{ENUMERATION_CAP}")
    for bits in range(1 << (n * (n - 1) // 2)):
        yield tournament_from_bits(n, bits)


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
    if len(set(names)) != n:
        dup = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"line 2: duplicate alternative name {dup!r}")
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
                continue
            if ch == "1":
                rows[i] |= 1 << j
            elif ch != "0":
                raise ValueError(f"line {lineno}: bad matrix entry {ch!r}")
            # entry (j, i) of an earlier row must say the opposite
            if j < i and (rows[i] >> j ^ rows[j] >> i) & 1 == 0:
                raise ValueError(
                    f"line {lineno}: pair ({names[j]}, {names[i]}) must be "
                    f"dominated in exactly one direction"
                )
    for lineno, line in enumerate(lines[n + 2:], start=n + 3):
        if line.strip():
            raise ValueError(f"line {lineno}: unexpected text after the matrix")
    return Tournament(names, tuple(rows))
