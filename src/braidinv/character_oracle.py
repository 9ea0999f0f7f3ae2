"""Brute-force verification path, independent of the catalog formulas.

By Mackey's formula, a group H of S_n has one invariant on the conjugacy
class lam of the cycle product for each (H, centralizer) double coset
whose twisted isotropy the centralizer's distinguished 1-dimensional
character is trivial on.  A double coset is the orbit of its marking
word, the 0/1 word of weight q marking the points it sends into the top
block, under the centralizer (with the complement thrown in for the
extension), and its isotropy is the word's stabilizer there.  Everything
is exact integer arithmetic: character values are exponents of roots of
unity, and a character is decided trivial or not on generators.

The centralizer is the product over the blocks (v, m) of equal parts of
C_v wr S_m, and the character the product of its restrictions, so all
that Mackey's formula reads off a coset factors over the blocks: an
orbit is one orbit per block, its stabilizer the product of theirs, the
character trivial on it when it is on each, and a complementing element
exists when each block has one, its value the product of their signs.
Only the weight couples the blocks.  So the character is only ever
evaluated on one block, as that of C_v wr S_m on an element given by how
it permutes the m parts and rotates each, and nothing below tables(n)
builds a partition.  Each block gives, once, two polynomials in the
weight w:

- P[w] counts its orbits of weight w the character is trivial on;
- T[w] sums the complement's sign over its self-complementary orbits of
  weight w the character is trivial on.

A product group has [x^q] of the product of the blocks' P as its
invariants on lam.  The extension pairs the orbits that are not
self-complementary, and keeps a self-complementary one when its sign is
1, so it has half of [x^q] of the product of the P plus that of the T.
Only the coefficient read depends on the group, so tables(n), cached,
multiplies each partition's blocks once, to x^(n/2), and reads every
group of GroupSpec.every(n) off those products; oracle_dimension reads
one group's table from it.  Every block's P is symmetric, so their
product is too, and a split q > n/2 has the table of the split n - q.

A block's orbits are its multisets of m rotation classes of length v,
each class the least rotation 0 1^g1 ... 0 1^gd of a necklace g of d
gaps from the package's one necklace walk, gap_necklaces.  Complementing
a word keeps its stabilizer, so only the orbits of weight at most vm / 2
are decided, and P's upper half is its lower half reversed.

A one-part block (v, 1) is decided class by class as the walk yields
it, for d >= v / 2 zeros, and nothing is kept per class: the word
repeats d / p times, p the gap period the walk yields, so its stabilizer
is generated by the rotation by its period v p / d, and the character is
decided on that rotation.  Only a class of weight v / 2 can be
self-complementary; it is when its complement occurs in the word twice
around, which also gives the complementing rotation and so the sign.
A block of m >= 2 parts, so v <= n / 2, reads a table per length v of
its classes in walk order, each with its weight, its stabilizer order
d / p and its complement class with the rotation onto it, found in one
dict of every rotation of every class.  Its picks, the multisets of m
classes as tuples of class indices, are decided on generators built from
those indices, the order read from their structure, and a complementing
element read off the table is checked on the letters.

Each block checks orbit-stabilizer at each weight it decides: its orbits
there are the orbits of C_v wr S_m on the C(vm, w) words of weight w, so
their indices v^m m! / |stabilizer| sum to that count, and a shortfall or
excess raises.  Nothing here consults the admissibility predicate or the
counting formulas, so agreement between the two paths is a real check.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from collections import Counter
from functools import lru_cache
from typing import Tuple

from .core_combinatorics import (
    Frozen, PoincareTable, all_partitions, gap_necklaces, truncated_product,
)
from .errors import InternalConsistencyError


def _sign(block_map: Tuple[int, ...]) -> int:
    """The sign of a permutation of the parts, given as their 0-based
    images."""
    seen = [False] * len(block_map)
    sign = 1
    for i in range(len(block_map)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = block_map[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class GroupSpec(Frozen):
    """One of the subgroups the oracle can invariantize against."""

    _fields = ("variant", "n", "q")

    def __init__(self, variant: str, n: int, q: int):
        if variant not in ("product", "extension"):
            raise ValueError("unknown group variant")
        if n < 1:
            raise ValueError("need n >= 1")
        if variant == "product" and not 0 <= q <= n:
            raise ValueError("need 0 <= q <= n")
        if variant == "extension" and n != 2 * q:
            raise ValueError("the extension needs n = 2q")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)

    @classmethod
    def product(cls, n: int, q: int) -> "GroupSpec":
        return cls("product", n, q)

    @classmethod
    def extension(cls, q: int) -> "GroupSpec":
        return cls("extension", 2 * q, q)

    @classmethod
    def every(cls, n: int) -> Tuple["GroupSpec", ...]:
        """The groups tabulated at n: the product splits q = 0..n/2 in
        ascending q, then the extension when n is even."""
        splits = tuple(cls.product(n, q) for q in range(n // 2 + 1))
        return splits + ((cls.extension(n // 2),) if n % 2 == 0 else ())

    def describe(self) -> str:
        if self.variant == "extension":
            return "extension(q=%d)" % self.q
        return "product(%d,%d)" % (self.n - self.q, self.q)


def _character_exponent(v: int, block_map, exponents) -> int:
    """Exponent, over L = v for even v and 2v for odd v, of the character of
    C_v wr S_m on the element of the block (v, m) with this data.

    Rotation by e on a part contributes e times the primitive v-th root,
    and e(v-1) to the sign; at even v the permutation of the parts
    contributes its sign, which is _sign of block_map.  Signs embed at
    exponent L/2.
    """
    L = v if v % 2 == 0 else 2 * v
    turns = sum(exponents)
    parity = turns * (v - 1)
    if v % 2 == 0 and _sign(block_map) == -1:
        parity += 1
    return (turns * (L // v) + (parity % 2) * (L // 2)) % L


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _class_word(v: int, gaps: Tuple[int, ...]) -> bytes:
    """The word 0 1^g1 ... 0 1^gd of length v of a necklace g of d gaps, as
    bytes; v ones for no gaps."""
    return b"".join([b"\0" + b"\1" * g for g in gaps]) or b"\1" * v


@lru_cache(maxsize=None)
def _classes(v: int):
    """The rotation classes of length v in walk order, lightest first: one
    per necklace of d gaps summing to v - d from the walk, for d = v down to
    1, then all ones.  Each is (word, weight, order, complement, rotation):
    its _class_word, its weight v - d, its stabilizer order d / p, p the gap
    period the walk yields (v for all ones), and the index of its complement
    class with the least e that rotates that class's word onto the
    complement of its own, found in one dict of every rotation of every
    class.  A complement found in no class raises."""
    walked = [
        (_class_word(v, gaps), v - d, d // p)
        for d in range(v, 0, -1)
        for gaps, p in gap_necklaces(d, v - d)
    ]
    walked.append((_class_word(v, ()), v, v))
    rotations = {}
    for c, (word, _, _) in enumerate(walked):
        for e in range(v):
            rotations.setdefault(word[e:] + word[:e], (c, e))
    table = []
    for word, weight, order in walked:
        flipped = word.translate(_FLIP)
        if flipped not in rotations:
            raise InternalConsistencyError(
                "the complement %s of a class of length %d is in no class"
                % (tuple(flipped), v)
            )
        table.append((word, weight, order) + rotations[flipped])
    return tuple(table)


def _pick_generators(v: int, pick: Tuple[int, ...]):
    """Generators, as (block_map, exponents) data, of the stabilizer in
    C_v wr S_m of the word of a pick, m class indices ascending; its order;
    and the data of one element complementing the word, None when none does.

    Equal parts hold equal letters, so a class of k parts and stabilizer
    order s gives C_s wr S_k, generated by the rotation by v / s of its
    first part and swaps of adjacent parts by 0.  A complementing element
    carries each class's parts in turn onto its complement class's by the
    class's rotation, so one exists when those classes are the pick's own."""
    classes = _classes(v)
    m = len(pick)
    generators = []
    for i, c in enumerate(pick):
        s = classes[c][2]
        if i and pick[i - 1] == c:
            swap = list(range(m))
            swap[i - 1:i + 1] = i, i - 1
            generators.append((tuple(swap), (0,) * m))
        elif s > 1:
            exponents = [0] * m
            exponents[i] = v // s
            generators.append((tuple(range(m)), tuple(exponents)))
    order = math.prod(
        classes[c][2] ** k * math.factorial(k) for c, k in Counter(pick).items()
    )
    flips = [classes[c][3] for c in pick]
    if sorted(flips) != list(pick):
        return generators, order, None
    block_map = tuple(
        pick.index(f) + i - pick.index(c) for i, (c, f) in enumerate(zip(pick, flips))
    )
    return generators, order, (block_map, tuple(classes[c][4] for c in pick))


def _pick_isotropy(v: int, pick: Tuple[int, ...]):
    """The isotropy of the block (v, m) on a pick of m classes, as
    _class_isotropy gives it, decided on _pick_generators.  The
    complementing element is read off the class table, so it is checked on
    the letters: one that does not carry each part's letters onto the
    complement of its image part's raises."""
    generators, order, complement = _pick_generators(v, pick)
    trivial = not any(_character_exponent(v, *g) for g in generators)
    if complement is None:
        return trivial, order, None
    words = [_classes(v)[c][0] for c in pick]
    if any(
        words[j][e:] + words[j][:e] != word.translate(_FLIP)
        for word, j, e in zip(words, *complement)
    ):
        raise InternalConsistencyError(
            "the complementing element of the pick (%s) of the block (%d, %d) "
            "does not carry its letters onto their complement"
            % (", ".join("".join(map(str, word)) for word in words), v, len(pick))
        )
    exponent = _character_exponent(v, *complement)
    return trivial, order, _complement_sign(v, b"".join(words), trivial, exponent)


def _complement_sign(v: int, letters, trivial: bool, exponent: int) -> int:
    """The sign, 1 or -1, that the character exponent of an element
    carrying the word with these letters onto its complement stands for,
    over the L that _character_exponent reads at the part value v.  Such
    an element squares into the word's stabilizer, so where the
    character is trivial there its value is a sign, and anything else
    raises; where it is not trivial, the sign never matters."""
    L = v if v % 2 == 0 else 2 * v
    if trivial and exponent not in (0, L // 2):
        raise InternalConsistencyError(
            "a complementing element of %s has character exponent %d over %d"
            % (tuple(letters), exponent, L)
        )
    return 1 if exponent == 0 else -1


@lru_cache(maxsize=None)
def _rotation_exponent(v: int, e: int) -> int:
    """The character exponent of the rotation by e on the one-part block
    (v); the classes of a block share the few rotations that generate
    their stabilizers."""
    return _character_exponent(v, (0,), (e,))


def _class_isotropy(v: int, gaps: Tuple[int, ...], p: int):
    """The isotropy of the one-part block (v) on the rotation class of
    0 1^g1 ... 0 1^gd, g a necklace of d gaps of least period p: whether
    the character is trivial on the stabilizer, its order, and the sign,
    1 or -1, it takes on a complementing element as _complement_sign reads
    it, None when there is none.

    The word repeats d / p times, so its stabilizer is generated by the
    rotation by its period v p / d and has order d / p.  Complementing
    keeps the weight, so only a class of weight v / 2 can be carried onto
    its complement, and it is when the complement occurs in the word twice
    around; where it first does is the complementing rotation."""
    d = len(gaps)
    order = d // p
    trivial = not _rotation_exponent(v, v // order)
    if 2 * d != v:
        return trivial, order, None
    word = _class_word(v, gaps)
    e = (word + word).find(word.translate(_FLIP))
    if e < 0:
        return trivial, order, None
    sign = _complement_sign(v, word, trivial, _rotation_exponent(v, e))
    return trivial, order, sign


def _walked_orbits(v: int):
    """The orbits of the block (v, 1) of weight at most v / 2, its rotation
    classes, each as its weight and its isotropy, decided as the necklace
    walk yields it: one class per necklace of d >= v / 2 gaps summing to
    the weight v - d."""
    for d in range(v, (v - 1) // 2, -1):
        for gaps, p in gap_necklaces(d, v - d):
            yield v - d, _class_isotropy(v, gaps, p)


def _picked_orbits(v: int, m: int):
    """The orbits of the block (v, m) of weight at most vm / 2, its picks,
    the multisets of m classes as ascending tuples of class indices, the
    all-zero word first, each as its weight and its isotropy."""
    classes = _classes(v)
    for pick in itertools.combinations_with_replacement(range(len(classes)), m):
        weight = sum(classes[c][1] for c in pick)
        if 2 * weight <= v * m:
            yield weight, _pick_isotropy(v, pick)


def _orbit_polynomials(v: int, m: int, orbits):
    """P and T of the block (v, m), coefficients by weight 0..vm, from its
    orbits of weight at most vm / 2, each as its weight and its isotropy,
    with orbit-stabilizer checked at each of those weights; and how many
    orbits there were.

    Complementing a word keeps its stabilizer and carries the orbits of
    weight w onto those of weight vm - w, so P is symmetric and its upper
    half is the lower half reversed; T lives at weight vm / 2, where the
    self-complementary orbits are.  Each stabilizer order divides the
    block's order v^m m!, and the orbits of weight w cover its C(vm, w)
    words of that weight; either failing raises."""
    size, half = v ** m * math.factorial(m), v * m // 2
    P, T, covered = ([0] * (half + 1) for _ in range(3))
    count = 0
    for count, (weight, (trivial, order, sign)) in enumerate(orbits, 1):
        if size % order:
            raise InternalConsistencyError(
                "isotropy order %d does not divide the block order %d" % (order, size)
            )
        covered[weight] += size // order
        if trivial:
            P[weight] += 1
            if sign is not None:
                T[weight] += sign
    for w, c in enumerate(covered):
        if c != math.comb(v * m, w):
            raise InternalConsistencyError(
                "the orbits of the block (%d, %d) cover %d of the %d words of weight %d"
                % (v, m, c, math.comb(v * m, w), w)
            )
    return tuple(P + P[v * m - half - 1::-1]), tuple(T), count


@lru_cache(maxsize=None)
def _block_polynomials(v: int, m: int):
    """P and T of the block (v, m): a one-part block's from its rotation
    classes as the necklace walk yields them, any other's from its picks.

    With logging loaded, one debug record per block gives its path, how
    many orbits it decided and its seconds."""
    logging = sys.modules.get("logging")
    start = time.perf_counter() if logging else 0.0
    if m == 1:
        path, orbits = "walk", _walked_orbits(v)
    else:
        path, orbits = "picks", _picked_orbits(v, m)
    P, T, count = _orbit_polynomials(v, m, orbits)
    if logging:
        logging.getLogger(__name__).debug(
            "oracle block (%d, %d): %s path, %d %s in %.3f s", v, m, path, count,
            "classes" if m == 1 else "picks", time.perf_counter() - start,
        )
    return P, T


@lru_cache(maxsize=None)
def tables(n: int) -> Tuple[PoincareTable, ...]:
    """The graded invariant dimensions of GroupSpec.every(n), in that
    order, one partition lam after another: lam's blocks' P, and at even n
    their T, are multiplied once to x^(n/2), each split q reads [x^q] of the
    P, and the extension half [x^(n/2)] of the P plus that of the T, whose
    parity is checked for each lam.

    With logging loaded, one debug record per partition says it is done."""
    # a record is made only when logging is loaded: the CLI loads it for
    # --verbose, and without it no handler exists that could show one
    logging = sys.modules.get("logging")
    log = logging.getLogger(__name__) if logging else None
    top, even = n // 2, n % 2 == 0
    counts = [Counter() for _ in GroupSpec.every(n)]
    for lam in all_partitions(n):
        P = T = (1,)
        for v, m in lam.blocks:
            block_P, block_T = _block_polynomials(v, m)
            P = truncated_product(P, block_P, top)
            if even:
                T = truncated_product(T, block_T, top)
        for q in range(top + 1):
            counts[q][lam.degree] += P[q]
        if even:
            twice = P[top] + (T[top] if top < len(T) else 0)
            if twice % 2:
                raise InternalConsistencyError(
                    "%s on the class %s: its orbits and signs sum to %d, an odd "
                    "count" % (GroupSpec.extension(top).describe(), lam, twice)
                )
            counts[-1][lam.degree] += twice // 2
        if log:
            log.debug("oracle n=%d: partition %s done", n, lam.parts)
    return tuple(PoincareTable.from_dict(count) for count in counts)


def oracle_dimension(n: int, group: GroupSpec) -> PoincareTable:
    """Graded invariant dimension of the group, read from tables(n): a
    split q > n/2 has the table of the split n - q."""
    if group.n != n:
        raise ValueError("group degree must equal n")
    every = tables(n)
    if group.variant == "extension":
        return every[-1]
    return every[min(group.q, n - group.q)]
