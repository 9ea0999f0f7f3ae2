"""Brute-force verification path, independent of the catalog formulas.

Builds the centralizer of the canonical cycle product of a partition, its
distinguished 1-dimensional character, the double cosets against a chosen
subgroup, and the Mackey inner products with the trivial character, in
exact integer arithmetic: character values are exponents of roots of
unity, and an inner product is decided on generators of the isotropy.  A
double coset is its marking word, built block by block from the rotation
classes of 0/1 words, each its least rotation, in lex order, built from
the gap words the package's one necklace walk, gap_necklaces, lists.
One table per length holds the classes and, aligned with them, the index
of each class's complement class, found with one min_rotation per class;
picks, complement tests and isotropy generators read it, so the words
the oracle builds need no other min_rotation.  Each block's
picks of rotation classes carry, computed once, which side of its
complement's pick they fall on, so the extension's coset walk decides
its complement test block by block, and are grouped by weight, so the
last block is read at the one weight that completes q.  The centralizer
and its character are products over the blocks of equal parts, so the
isotropy is decided once per distinct block, on the one-block partition,
cached under the block's letters for product and extension alike, and
each coset multiplies its blocks' answers: one slice and one cache
lookup per block.  The extension's element complementing a block's word
is found with the block's isotropy generators, and its character value,
a sign, is multiplied across the blocks.
The same walk checks orbit-stabilizer, partition by partition: the
cosets of lam are the group's orbits on its conjugacy class, so the
indices |G| / |isotropy| of the cosets' isotropy orders sum to the class
size n! / z_lam, and a shortfall or excess raises.
Nothing here consults the admissibility predicate or the counting
formulas, so agreement between the two paths is a real check.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from .core_combinatorics import (
    Partition, PoincareTable, all_partitions, gap_necklaces, min_rotation,
    necklace_multiplicity,
)
from .errors import InternalConsistencyError

log = logging.getLogger(__name__)


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


def _from_cycles(n: int, *cycles: Tuple[int, ...]) -> Tuple[int, ...]:
    """Images of the product of disjoint cycles on 1..n."""
    out = list(range(1, n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a - 1] = b
    return tuple(out)


@dataclass(frozen=True)
class GroupSpec:
    """One of the subgroups the oracle can invariantize against."""

    variant: str
    n: int
    q: int

    def __post_init__(self):
        if self.variant not in ("product", "extension"):
            raise ValueError("unknown group variant")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.variant == "product" and not 0 <= self.q <= self.n:
            raise ValueError("need 0 <= q <= n")
        if self.variant == "extension" and self.n != 2 * self.q:
            raise ValueError("the extension needs n = 2q")

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

    @property
    def order(self) -> int:
        base = math.factorial(self.n - self.q) * math.factorial(self.q)
        return 2 * base if self.variant == "extension" else base

    def describe(self) -> str:
        if self.variant == "extension":
            return "extension(q=%d)" % self.q
        return "product(%d,%d)" % (self.n - self.q, self.q)


@dataclass(frozen=True)
class CentralizerPresentation:
    """Generators and bookkeeping for the centralizer of a cycle product."""

    lam: Partition
    generators: Tuple[Tuple[int, ...], ...]

    @property
    def order(self) -> int:
        out = 1
        for v, m in self.lam.blocks:
            out *= math.factorial(m) * v ** m
        return out


@lru_cache(maxsize=None)
def build_centralizer(lam: Partition) -> CentralizerPresentation:
    """Consecutive cycles and adjacent rigid block swaps generating it."""
    n = lam.n
    generators = []
    for i in range(1, lam.part_count + 1):
        start = lam.block_start(i)
        generators.append(
            _from_cycles(n, tuple(range(start + 1, start + lam.parts[i - 1] + 1)))
        )
    for i in range(1, lam.part_count):
        if lam.parts[i - 1] != lam.parts[i]:
            continue
        v = lam.parts[i - 1]
        start = lam.block_start(i)
        swaps = [(start + t + 1, start + v + t + 1) for t in range(v)]
        generators.append(_from_cycles(n, *swaps))
    return CentralizerPresentation(lam, tuple(generators))


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


@lru_cache(maxsize=None)
def _block_picks(v: int, m: int):
    """The multisets of m rotation classes of length v, in lex order, each
    as (its letters, its weight, side), and the same picks grouped by
    weight: entry w holds the picks of weight w, in lex order.

    side is -1, 0 or 1 as the pick is below, equal to or above its
    complemented pick, the ascending complement classes of its classes;
    the classes ascend as their words do, so comparing class indices
    compares the picks' words."""
    words, flips = _classes(v)
    picks = []
    by_weight = [[] for _ in range(v * m + 1)]
    for pick in itertools.combinations_with_replacement(range(len(words)), m):
        if m == 1:
            letters = words[pick[0]]  # the table's own word, not a copy
        else:
            letters = tuple(b for i in pick for b in words[i])
        flipped = tuple(sorted(flips[i] for i in pick))
        entry = (letters, sum(letters), (pick > flipped) - (pick < flipped))
        picks.append(entry)
        by_weight[entry[1]].append(entry)
    return tuple(picks), tuple(map(tuple, by_weight))


def double_cosets(group: GroupSpec, lam: Partition) -> Tuple[Tuple[int, ...], ...]:
    """One marking word per (group, centralizer) double coset, sorted.

    A coset's marking word is the 0/1 word on the points 1..n that marks
    the points it sends into the top block.  The double cosets are the
    orbits of weight-q words under the centralizer, which rotates each part
    and permutes equal parts, with the complement thrown in for the
    extension.  An orbit is a multiset of rotation classes per block of
    equal parts; its lex-least word, the one given here, lists each
    block's least rotations in ascending order.  The blocks are walked
    depth first, each block's picks in order, keeping a pick only when
    the blocks after it can still make up the weight q: a block (v, m)
    takes every weight from 0 to v m, so they can when what is left of q
    is at least 0 and at most their letter count.  The last block is read
    from its picks of the one weight that completes q, in order.
    The extension keeps a word when it is at most its complement's least
    word, compared block by block: while the blocks so far equal their
    complemented picks, a pick above its own prunes its subtree and one
    below it accepts every completion."""
    if lam.n != group.n:
        raise ValueError("partition total must match the group degree")
    blocks = [_block_picks(v, m) for v, m in lam.blocks]
    last = len(blocks) - 1
    # rest[i]: the letter count of the blocks after block i, which can
    # weigh anything from 0 to rest[i], as each block (v, m) takes every
    # weight from 0 to v m
    rest = [group.n - s for s in itertools.accumulate(v * m for v, m in lam.blocks)]
    reps = []

    # ascending classes and segments of fixed length: words come in lex order
    def walk(i, word, w, tied):
        if i == last:
            for letters, _, side in blocks[i][1][group.q - w]:
                if not (tied and side > 0):
                    reps.append(word + letters)
            return
        for letters, bw, side in blocks[i][0]:
            if tied and side > 0:
                continue
            if 0 <= group.q - w - bw <= rest[i]:
                walk(i + 1, word + letters, w + bw, tied and side == 0)

    walk(0, (), 0, group.variant == "extension")
    return tuple(reps)


@lru_cache(maxsize=None)
def _block_isotropy(v: int, letters: Tuple[int, ...]):
    """The isotropy of one block of equal parts of value v, whose letters,
    word[start:end], cover its parts in order, decided on generators up to
    complement over the one-block partition (v^m); one entry serves the
    product groups and the extension.

    A block whose segments are not least rotations in ascending order
    reads the entry of the one that is, found with min_rotation, so
    generators are built once per distinct block; the words double_cosets
    gives are canonical, which the scan and a sort confirm, and hit the
    cache directly.

    Returns whether the character is trivial on the stabilizer of the
    block's word, the stabilizer's order, and the sign, 1 or -1, the
    character takes on an element complementing the word; None when there
    is none.  Product groups read the first two.  Such an element squares
    into the stabilizer, so where the character is trivial there its value
    is a sign, and anything else raises; on a block it is not trivial on,
    the sign never matters."""
    segments = [letters[s:s + v] for s in range(0, len(letters), v)]
    if not all(map(necklace_multiplicity, segments)) or segments != sorted(segments):
        canonical = sorted(min_rotation(segment)[0] for segment in segments)
        return _block_isotropy(v, tuple(itertools.chain.from_iterable(canonical)))
    lam = Partition((v,) * len(segments))
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


def _isotropy_sum(word: Tuple[int, ...], lam: Partition, group: GroupSpec):
    """The character sum over the twisted isotropy, decided block by block.

    Conjugated by a coset with this marking word, the isotropy is the
    stabilizer of the word in the centralizer (for the extension: of the
    word up to complement).  The centralizer is the product over its blocks
    (v, m) of C_v wr S_m and the character is the product of its
    restrictions, so the stabilizer of the word is the product of the
    blocks' stabilizers, the character is trivial on it when it is on each,
    and a complementing element exists when every block has one, its value
    the product of their signs.  A character sums to the group order over
    a group it is trivial on, and to 0 otherwise.
    Returns (whether the sum is the isotropy order, isotropy order)."""
    sign = 1 if group.variant == "extension" else None
    trivial, order = True, 1
    start = 0
    for v, m in lam.blocks:
        end = start + v * m
        block_trivial, block_order, block_sign = _block_isotropy(v, word[start:end])
        start = end
        trivial = trivial and block_trivial
        order *= block_order
        if sign is not None:
            sign = None if block_sign is None else sign * block_sign
    if sign is not None:
        # the complementing element doubles the group and must have value 1
        trivial = trivial and sign == 1
        order *= 2
    return trivial, order


def isotropy_inner_product(
    word: Tuple[int, ...], lam: Partition, group: GroupSpec
) -> Tuple[int, int]:
    """(multiplicity of the trivial character in the twisted restriction of
    the coset with this marking word, isotropy order): the multiplicity is
    1 when the centralizer character is trivial on the isotropy, else 0."""
    word = tuple(word)
    if lam.n != group.n:
        raise ValueError("partition total must match the group degree")
    if word.count(0) + word.count(1) != len(word):
        raise ValueError("%s is not a 0/1 word" % (word,))
    if len(word) != lam.n or sum(word) != group.q:
        raise ValueError(
            "a marking word needs length %d and weight %d, got %s"
            % (lam.n, group.q, word)
        )
    trivial, order = _isotropy_sum(word, lam, group)
    return int(trivial), order


def oracle_dimension(n: int, group: GroupSpec) -> PoincareTable:
    """Graded invariant dimension of the group, summed over cosets degree
    by degree, one partition after another in this process.

    The same walk checks orbit-stabilizer: the cosets of a partition lam
    are the group's orbits on its conjugacy class, so their indices
    |G| / |isotropy| sum to the class size n! / z_lam, with z_lam the
    product of v^m m! over the blocks (v, m)."""
    if group.n != n:
        raise ValueError("group degree must equal n")
    order, n_factorial = group.order, math.factorial(n)
    counts = Counter()
    for lam in all_partitions(n):
        # one invariant per coset whose isotropy the character is trivial on
        invariants = covered = 0
        for word in double_cosets(group, lam):
            trivial, h = isotropy_inner_product(word, lam, group)
            if order % h:
                raise InternalConsistencyError(
                    "isotropy order %d does not divide the group order" % h
                )
            invariants += trivial
            covered += order // h
        class_size = n_factorial // math.prod(
            v ** m * math.factorial(m) for v, m in lam.blocks
        )
        if covered != class_size:
            raise InternalConsistencyError(
                "the orbits of %s on the class %s cover %d of its %d elements"
                % (group.describe(), lam, covered, class_size)
            )
        counts[lam.degree] += invariants
        log.debug("oracle %s: partition %s done", group.describe(), lam.parts)
    return PoincareTable.from_dict(counts)
