"""Partitions, words, rotations, and counting primitives.

Everything downstream works with exact integers; no floating point is used
anywhere in this package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Tuple

Word = Tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers.

    >>> p = Partition((3, 2, 2, 1))
    >>> p.n, p.part_count, p.degree
    (8, 4, 4)
    >>> p.blocks
    ((3, 1), (2, 2), (1, 1))
    """

    parts: Tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    @property
    def degree(self) -> int:
        # a generator attached to a partition with j parts of n sits in
        # cohomological degree n - j
        return self.n - self.part_count

    @property
    def blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Distinct part values with multiplicities, values descending."""
        out = []
        for v in self.parts:
            if out and out[-1][0] == v:
                out[-1][1] += 1
            else:
                out.append([v, 1])
        return tuple((v, m) for v, m in out)

    def block_start(self, i: int) -> int:
        """0-based offset of the i-th part's interval (i is 1-based)."""
        if not 1 <= i <= self.part_count:
            raise ValueError("part index out of range")
        return sum(self.parts[: i - 1])

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@lru_cache(maxsize=None)
def enumerate_partitions(n: int, part_count: int) -> Tuple[Partition, ...]:
    """All partitions of n with exactly part_count parts, descending lex.

    >>> [p.parts for p in enumerate_partitions(6, 2)]
    [(5, 1), (4, 2), (3, 3)]
    """
    if not 1 <= part_count <= n:
        raise ValueError("need 1 <= part_count <= n")
    out = []

    def rec(remaining, left, max_part, prefix):
        if left == 0:
            if remaining == 0:
                out.append(Partition(prefix))
            return
        # each remaining part is at least 1
        hi = min(max_part, remaining - (left - 1))
        for p in range(hi, 0, -1):
            rec(remaining - p, left - 1, p, prefix + (p,))

    rec(n, part_count, n, ())
    return tuple(out)


def all_partitions(n: int) -> Tuple[Partition, ...]:
    """Partitions of n for every part count, fewest parts first."""
    out = []
    for j in range(1, n + 1):
        out.extend(enumerate_partitions(n, j))
    return tuple(out)


def binomial(a: int, b: int) -> int:
    """C(a, b), zero outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def min_rotation(w: Iterable[int]) -> Tuple[Word, int]:
    """Lexicographically minimal rotation and how many rotations attain it.

    >>> min_rotation((2, 0, 1))
    ((0, 1, 2), 1)
    >>> min_rotation((0, 2, 0, 2))
    ((0, 2, 0, 2), 2)
    """
    w = tuple(w)
    if not w:
        raise ValueError("empty word has no rotation")
    n = len(w)
    doubled = w + w
    rotations = [doubled[i:i + n] for i in range(n)]
    best = min(rotations)
    return best, rotations.count(best)


def mobius(n: int) -> int:
    """The Moebius function: 0 if a square divides n, else (-1)^(prime count)."""
    if n < 1:
        raise ValueError("need n >= 1")
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def series_times(series: Dict[tuple, int], step: tuple, coeffs, limit: int):
    """The series times the sum of coeffs[c] X^c, X the monomial with
    exponents step, dropping terms whose first exponent (size) exceeds limit.
    A series maps exponent tuples to integer coefficients."""
    out = {key: a * coeffs[0] for key, a in series.items()}
    for c in range(1, len(coeffs)):
        shift = tuple(c * s for s in step)
        for key, a in series.items():
            if coeffs[c] and key[0] + shift[0] <= limit:
                moved = tuple(map(operator.add, key, shift))
                out[moved] = out.get(moved, 0) + a * coeffs[c]
    return out
