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
Only the weight couples the blocks.  So each block gives, once, two
polynomials in the weight w:

- P[w] counts its orbits of weight w the character is trivial on;
- T[w] sums the complement's sign over its self-complementary orbits of
  weight w the character is trivial on.

A product group has [x^q] of the product of the blocks' P as its
invariants on lam.  The extension pairs the orbits that are not
self-complementary, and keeps a self-complementary one when its sign is
1, so it has half of [x^q] of the product of the P plus that of the T.

A block's orbits are its multisets of m rotation classes of length v,
each class its least rotation, listed from the gap words of the
package's one necklace walk, gap_necklaces, with the index of each
class's complement class.  The stabilizer of an orbit's word is built
on generators, its order read from its structure.  Complementing a word
keeps its stabilizer, so only the orbits of weight at most vm / 2 are
decided, and P's upper half is its lower half reversed.  Each block
checks orbit-stabilizer at each of those weights: its orbits there are
the orbits of C_v wr S_m on the C(vm, w) words of weight w, so their
indices v^m m! / |stabilizer| sum to that count, and a shortfall or
excess raises.  Nothing here consults the admissibility predicate or the
counting formulas, so agreement between the two paths is a real check.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections import Counter
from functools import lru_cache
from typing import Tuple

from .core_combinatorics import (
    Frozen, Partition, PoincareTable, all_partitions, gap_necklaces,
    min_rotation, necklace_multiplicity,
)
from .errors import InternalConsistencyError


def _sign(images: Tuple[int, ...]) -> int:
    seen = [False] * len(images)
    sign = 1
    for i in range(len(images)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j] - 1
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


def _rotation_onto(segment: Tuple[int, ...], target: Tuple[int, ...]) -> int:
    """The least e with segment[(t + e) % v] == target[t] for every t."""
    for e in range(len(segment)):
        if segment[e:] + segment[:e] == target:
            return e
    raise InternalConsistencyError("%s is not a rotation of %s" % (target, segment))


def _isotropy_generators(lam: Partition, word: Tuple[int, ...]):
    """Generators, as (block_map, exponents) data, of the stabilizer of a
    0/1 word on the points 1..n, the centralizer elements z with the letter
    at z(x) the letter at x; the stabilizer's order, read from its
    structure; and the data of one element complementing the word, or
    None when there is none.

    Parts fall into classes: same value v, same segment up to rotation.  A
    class of k parts whose segment has least period p contributes
    C_(v/p) wr S_k, generated by a rotation by p of its first part and by
    swaps of adjacent parts, each carried onto the other's letters.  An
    element complementing the word carries every class onto its
    complement class, so it exists exactly when those have equal sizes.
    """
    count = lam.part_count
    starts = itertools.accumulate(lam.parts, initial=0)
    segments = [tuple(word[s:s + v]) for s, v in zip(starts, lam.parts)]
    classes = {}  # (least rotation, v / p) -> part indices
    for i, segment in enumerate(segments):
        symmetry = necklace_multiplicity(segment)
        key = (segment, symmetry) if symmetry else min_rotation(segment)
        classes.setdefault(key, []).append(i)
    generators = []
    order = 1
    for (least, symmetry), members in classes.items():
        v = len(least)
        order *= symmetry ** len(members) * math.factorial(len(members))
        if symmetry > 1:
            exponents = [0] * count
            exponents[members[0]] = v // symmetry
            generators.append((tuple(range(count)), tuple(exponents)))
        for a, b in zip(members, members[1:]):
            block_map, exponents = list(range(count)), [0] * count
            e = _rotation_onto(segments[b], segments[a])
            block_map[a], exponents[a] = b, e
            block_map[b], exponents[b] = a, -e % v
            generators.append((tuple(block_map), tuple(exponents)))
    block_map, exponents = [0] * count, [0] * count
    for (least, symmetry), members in classes.items():
        words, flips = _classes(len(least))
        # complementing keeps the period, so the partner's symmetry
        partner = words[flips[bisect.bisect_left(words, least)]]
        partners = classes.get((partner, symmetry), ())
        if len(partners) != len(members):
            return generators, order, None
        for i, j in zip(members, partners):
            block_map[i] = j
            exponents[i] = _rotation_onto(
                segments[j], tuple(1 - b for b in segments[i])
            )
    return generators, order, (tuple(block_map), tuple(exponents))


@lru_cache(maxsize=None)
def root_order(lam: Partition) -> int:
    """Exponent lattice: the lcm of the parts, doubled when odd."""
    L = 1
    for p in lam.parts:
        L = L * p // math.gcd(L, p)
    return L if L % 2 == 0 else 2 * L


def _character_exponent(lam: Partition, block_map, exponents) -> int:
    """Exponent, over L = root_order(lam), of the character value on the
    element with this data.

    Rotation by e on a part of size p contributes e times the primitive
    p-th root, and e(p-1) to the sign; the block permutation contributes
    its sign on the even parts, which is _sign of block_map with the odd
    parts held fixed, as parts only go to parts of their own value.  Signs
    embed at exponent L/2.
    """
    L = root_order(lam)
    root = 0
    sign_parity = 0
    even_map = []
    for i, (p, e, b) in enumerate(zip(lam.parts, exponents, block_map)):
        root += e * (L // p)
        sign_parity += e * (p - 1)
        even_map.append((i if p % 2 else b) + 1)
    if _sign(tuple(even_map)) == -1:
        sign_parity += 1
    return (root + (sign_parity % 2) * (L // 2)) % L


@lru_cache(maxsize=None)
def _classes(v: int):
    """The rotation classes of length v, each as its least rotation, in lex
    order, and aligned with them the index of each class's complement class.

    The least rotation of a word with d >= 1 zeros starts with a 0, so it
    is 0 1^g1 ... 0 1^gd, g the least rotation of its cyclic runs of ones,
    and two such words compare as their runs do: one class per necklace of
    d gaps summing to v - d, and all ones."""
    words = [(1,) * v]
    for d in range(1, v + 1):
        for gaps, _ in gap_necklaces(d, v - d):
            words.append(tuple(b for g in gaps for b in (0,) + (1,) * g))
    words = tuple(sorted(words))
    flips = tuple(
        bisect.bisect_left(words, min_rotation(1 - b for b in w)[0]) for w in words
    )
    return words, flips


def _block_picks(v: int, m: int):
    """The multisets of m rotation classes of length v of weight at most
    vm / 2, in lex order, each as (its letters, its weight, whether it is
    self-complementary): whether the ascending complement classes of its
    classes are its own."""
    words, flips = _classes(v)
    weights = [sum(word) for word in words]
    for pick in itertools.combinations_with_replacement(range(len(words)), m):
        weight = sum(weights[i] for i in pick)
        if 2 * weight <= v * m:
            letters = tuple(b for i in pick for b in words[i])
            yield letters, weight, pick == tuple(sorted(flips[i] for i in pick))


def _block_isotropy(lam: Partition, letters: Tuple[int, ...]):
    """The isotropy of one block of equal parts, the one-block partition
    lam = (v^m), whose letters cover its parts in order, decided on
    generators.

    Returns whether the character is trivial on the stabilizer of the
    block's word, the stabilizer's order, and the sign, 1 or -1, the
    character takes on an element complementing the word; None when there
    is none.  Such an element squares into the stabilizer, so where the
    character is trivial there its value is a sign, and anything else
    raises; on a block it is not trivial on, the sign never matters."""
    generators, order, complement = _isotropy_generators(lam, letters)
    trivial = not any(_character_exponent(lam, *g) for g in generators)
    if complement is None:
        return trivial, order, None
    exponent = _character_exponent(lam, *complement)
    if trivial and exponent not in (0, root_order(lam) // 2):
        raise InternalConsistencyError(
            "a complementing element of %s has character exponent %d over %d"
            % (letters, exponent, root_order(lam))
        )
    return trivial, order, 1 if exponent == 0 else -1


@lru_cache(maxsize=None)
def _block_polynomials(v: int, m: int):
    """P and T of the block (v, m), coefficients by weight 0..vm, from one
    pass over its picks, the orbits of weight at most vm / 2, with
    orbit-stabilizer checked at each of those weights.

    Complementing a word keeps its stabilizer and carries the orbits of
    weight w onto those of weight vm - w, so P is symmetric and its upper
    half is the lower half reversed; T lives at weight vm / 2, where the
    self-complementary orbits are.  A pick is self-complementary exactly
    when its word has a complementing element, and each stabilizer order
    divides the block's order v^m m!; either failing raises."""
    lam, size, half = Partition((v,) * m), v ** m * math.factorial(m), v * m // 2
    P, T, covered = ([0] * (half + 1) for _ in range(3))
    for letters, weight, self_complementary in _block_picks(v, m):
        trivial, order, sign = _block_isotropy(lam, letters)
        if size % order:
            raise InternalConsistencyError(
                "isotropy order %d does not divide the block order %d" % (order, size)
            )
        if self_complementary != (sign is not None):
            raise InternalConsistencyError(
                "the pick %s is %sself-complementary, but its word has %s "
                "complementing element" % (
                    letters, "" if self_complementary else "not ",
                    "no" if sign is None else "a",
                )
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
    return tuple(P + P[v * m - half - 1::-1]), tuple(T)


def _coefficient(polynomials, q: int) -> int:
    """[x^q] of the product of the polynomials, each its coefficients."""
    product = [1] + [0] * q
    for poly in polynomials:
        product = [
            sum(c * product[d - w] for w, c in enumerate(poly[:d + 1]))
            for d in range(q + 1)
        ]
    return product[q]


def oracle_dimension(n: int, group: GroupSpec) -> PoincareTable:
    """Graded invariant dimension of the group, one partition lam after
    another, each from the products of its blocks' P and T."""
    if group.n != n:
        raise ValueError("group degree must equal n")
    # a record is made only when logging is loaded: the CLI loads it for
    # --verbose, and without it no handler exists that could show one
    logging = sys.modules.get("logging")
    log = logging.getLogger(__name__) if logging else None
    counts = Counter()
    for lam in all_partitions(n):
        blocks = [_block_polynomials(v, m) for v, m in lam.blocks]
        invariants = _coefficient([P for P, _ in blocks], group.q)
        if group.variant == "extension":
            twice = invariants + _coefficient([T for _, T in blocks], group.q)
            if twice % 2:
                raise InternalConsistencyError(
                    "%s on the class %s: its orbits and signs sum to %d, an odd "
                    "count" % (group.describe(), lam, twice)
                )
            invariants = twice // 2
        counts[lam.degree] += invariants
        if log:
            log.debug("oracle %s: partition %s done", group.describe(), lam.parts)
    return PoincareTable.from_dict(counts)
