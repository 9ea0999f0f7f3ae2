"""Partitions, words, rotations, counting primitives and graded dimension tables.

Everything downstream works with exact integers; no floating point is used
anywhere in this package.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

Word = Tuple[int, ...]


class Frozen:
    """An immutable value, compared, hashed and shown by the fields that
    _fields names, which are also its constructor's arguments.

    A subclass's __init__ validates its arguments and sets each field once
    with object.__setattr__; any later assignment raises AttributeError.
    This is what a frozen dataclass gives, without importing dataclasses,
    which loads inspect, ast and dis, on every start of the CLI.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __reduce__(self):
        # copies and pickles are rebuilt, and revalidated, by __init__
        return type(self), self._key()


class Partition(Frozen):
    """A weakly decreasing tuple of positive integers.

    >>> p = Partition((3, 2, 2, 1))
    >>> p.n, p.part_count, p.degree
    (8, 4, 4)
    >>> p.blocks
    ((3, 1), (2, 2), (1, 1))
    """

    # no __slots__: the cached properties live in the instance __dict__
    _fields = ("parts",)

    def __init__(self, parts: Tuple[int, ...]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    @cached_property
    def degree(self) -> int:
        # a generator attached to a partition with j parts of n sits in
        # cohomological degree n - j
        return self.n - self.part_count

    @cached_property
    def blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Distinct part values with multiplicities, values descending."""
        out = []
        for v in self.parts:
            if out and out[-1][0] == v:
                out[-1][1] += 1
            else:
                out.append([v, 1])
        return tuple((v, m) for v, m in out)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class PoincareTable(Frozen):
    """Degree-indexed dimensions; absent degrees are zero."""

    _fields = ("entries",)

    def __init__(self, entries: Tuple[Tuple[int, int], ...]):
        cleaned = tuple(sorted((d, v) for d, v in entries if v))
        if any(d < 0 or v < 0 for d, v in cleaned):
            raise ValueError("degrees and dimensions must be non-negative")
        if len({d for d, _ in cleaned}) != len(cleaned):
            raise ValueError("repeated degree")
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def from_dict(cls, mapping: Dict[int, int]) -> "PoincareTable":
        return cls(tuple(mapping.items()))

    def __getitem__(self, degree: int) -> int:
        for d, v in self.entries:
            if d == degree:
                return v
        return 0

    @property
    def total(self) -> int:
        return sum(v for _, v in self.entries)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.entries)


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
        # each remaining part is at least 1, and none exceeds this one
        hi = min(max_part, remaining - (left - 1))
        lo = -(-remaining // left)
        for p in range(hi, lo - 1, -1):
            rec(remaining - p, left - 1, p, prefix + (p,))

    rec(n, part_count, n, ())
    return tuple(out)


def all_partitions(n: int) -> Tuple[Partition, ...]:
    """Partitions of n for every part count, fewest parts first."""
    out = []
    for j in range(1, n + 1):
        out.extend(enumerate_partitions(n, j))
    return tuple(out)


def partition_count(n: int, cap: int) -> int:
    """p(n), or the first p(k) above cap for some k <= n when there is one.

    Euler's pentagonal recurrence, stopped at the first k with p(k) > cap:
    p grows, so a huge n costs no more than the k where p first passes
    cap.

    >>> partition_count(10, 100), partition_count(10**9, 100)
    (42, 101)
    """
    p = [1]
    for k in range(1, n + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            total += sign * p[k - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= k:
                total += sign * p[k - j * (3 * j + 1) // 2]
            j += 1
        p.append(total)
        if total > cap:
            break
    return p[-1]


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


def necklace_multiplicity(w: Sequence[int]) -> int:
    """The number of rotations attaining a non-empty word of length d if it
    is its own least rotation, else 0.  One linear scan (Duval 1983;
    Ruskey, Savage and Wang 1992): it is iff it is a prenecklace whose
    longest Lyndon prefix has a length p dividing d, and then d / p."""
    p = 1
    for i in range(1, len(w)):
        if w[i] < w[i - p]:
            return 0
        if w[i] > w[i - p]:
            p = i + 1
    return 0 if len(w) % p else len(w) // p


def gap_necklaces(d: int, total: int):
    """The necklaces of d >= 1 gaps summing to total, ascending, each with
    its least period p as (gaps, p).

    The fixed-density walk of Ruskey and Sawada (SIAM J. Comput. 1999) over
    gap words, on the Fredricksen-Kessler-Maiorana prenecklace recursion: a
    prenecklace a[1..t-1] of least period p extends by a[t] = a[t-p],
    keeping p, or by a larger letter, making the period t; a prenecklace of
    length d is a necklace iff p divides d.  A necklace starts with its
    least letter, so letter t is at most what a[1..t-1] leave of total,
    less a[1] for each letter after it.

    The last letter takes what is left, so the walk stops at t = d - 1 and
    tests each letter c there with its forced successor z = left[d] - c in
    place.  For c = a[t - p], keeping p, the word is kept when
    z >= a[d - p], with period p if equal (and p divides d) and d if
    larger.  A larger c makes the period d - 1, so z's floor is a[1]:
    every c below left[d - 1] - a[1] gives a necklace of period d, and
    that last c gives z = a[1], a period d - 1 that does not divide
    d >= 3.  One and two gaps are listed directly.
    """
    if d == 1:
        yield (total,), 1
        return
    if d == 2:
        for c in range(total // 2 + 1):
            yield (c, total - c), 1 if 2 * c == total else 2
        return
    a = [0] * (d + 1)
    left = [total] * (d + 1)  # left[t]: what a[1..t-1] leave of the total
    period = [1] * (d + 1)  # period[t]: least period of a[1..t]
    # the recursion in loop form, so a long word cannot exhaust the stack:
    # t is the position to fill and a[t] + 1 the next letter to try there,
    # the lowest, a[t - period[t - 1]], when t has just been reached
    t, a[1] = 1, -1
    while t:
        floor = a[t - period[t - 1]]
        if t == d - 1:
            rest, p, prefix = left[t], period[t - 1], tuple(a[1:t])
            a[t] = floor  # read back as a[d - p] when p = 1
            z, z_floor = rest - floor, a[d - p]
            if z > z_floor:
                yield prefix + (floor, z), d
            elif z == z_floor and d % p == 0:
                yield prefix + (floor, z), p
            for c in range(floor + 1, rest - a[1]):
                yield prefix + (c, rest - c), d
            t -= 1
            continue
        c = a[t] + 1
        if c > (left[t] - (d - t) * a[1] if t > 1 else total // d):
            t -= 1
            continue
        a[t] = c
        left[t + 1] = left[t] - c
        period[t] = period[t - 1] if c == floor else t
        t += 1
        a[t] = a[t - period[t - 1]] - 1


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


def packed_series(n: int, slots: int, factors) -> List[int]:
    """Size-n coefficients of the product over part values v = 1..n of the
    factors factors(v) yields, one per slot of the packed polynomial.

    A factor is (size, slot, coeffs) with size >= v and coeffs[0] = 1: the
    sum of coeffs[c] X^c, X a term of that size that moves a coefficient
    that many slots up.  The series is a list indexed by size; each entry
    packs its polynomial into one integer, 2n + 2 bits to a slot (Kronecker
    substitution), so a factor step is shifts and multiply-adds.  A slot
    holds any coefficient below 2^(2n+1) in absolute value, which the label
    counts meet: a size-n term counts at most p(n) 2^n < 4^n labels, each
    fixed by its partition and one marking word.

    After the factors of v, a term short of n by 1 to v is dropped: the
    parts still to come are larger than v, so none of its products reaches
    size n.  Only sizes up to n - v and n itself are updated for v, for the
    same reason."""
    width = 2 * n + 2
    series = [1] + [0] * n
    for v in range(1, n + 1):
        for size, slot, coeffs in factors(v):
            shift = slot * width
            targets = [n] + list(range(n - v, size - 1, -1))
            for s in targets:
                acc = series[s]
                for c in range(1, min(len(coeffs) - 1, s // size) + 1):
                    below = series[s - c * size]
                    if below and coeffs[c]:
                        acc += coeffs[c] * below << c * shift
                series[s] = acc
        series[max(n - v, 0):n] = [0] * min(v, n)
    return _balanced_digits(series[n], width, slots)


def _balanced_digits(packed: int, width: int, slots: int) -> List[int]:
    """The slots of a packed integer, each read as a signed width-bit digit."""
    half = 1 << (width - 1)
    ones = ((1 << width * slots) - 1) // ((1 << width) - 1)
    digits = format(packed + half * ones, "0%db" % (width * slots))
    return [
        int(digits[i - width:i], 2) - half
        for i in range(len(digits), 0, -width)
    ]
