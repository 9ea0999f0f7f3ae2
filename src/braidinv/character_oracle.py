"""Brute-force verification path, independent of the catalog formulas.

Builds the centralizer of the canonical cycle product of a partition, its
distinguished 1-dimensional character, the double cosets against a chosen
subgroup, and the Mackey inner products with the trivial character, in
exact integer arithmetic: character values are exponents of roots of
unity, and an inner product is decided on generators of the isotropy.  A
double coset is its marking word, built block by block from the rotation
classes of 0/1 words, which are found by rotating every word.  Nothing
here consults the admissibility predicate or the counting formulas, so
agreement between the two paths is a real check.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

from .core_combinatorics import Partition, PoincareTable, all_partitions, min_rotation
from .errors import CapabilityError, InternalConsistencyError

log = logging.getLogger(__name__)

ORACLE_LIMIT = 8
ORACLE_LONG_LIMIT = 10


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


def _isotropy_generators(
    lam: Partition, word: Tuple[int, ...], up_to_complement: bool
):
    """Generators, as (block_map, exponents) data, of the centralizer
    elements z that keep a 0/1 word on the points 1..n (the letter at z(x)
    is the letter at x), or with up_to_complement keep it or complement it;
    and the order of that group, read from its structure.

    Parts fall into classes: same value v, same segment up to rotation.  A
    class of k parts whose segment has least period p contributes
    C_(v/p) wr S_k, generated by a rotation by p of its first part and by
    swaps of adjacent parts, each carried onto the other's letters.  Up to
    complement, one element carrying every class onto its complement class
    doubles the group when it exists.
    """
    count = lam.part_count
    starts = [lam.block_start(i + 1) for i in range(count)]
    segments = [tuple(word[s:s + v]) for s, v in zip(starts, lam.parts)]
    classes = {}  # (least rotation, v / p) -> part indices
    for i, segment in enumerate(segments):
        classes.setdefault(min_rotation(segment), []).append(i)
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
    if up_to_complement:
        block_map, exponents = [0] * count, [0] * count
        for (least, _), members in classes.items():
            partners = classes.get(min_rotation(tuple(1 - b for b in least)), ())
            if len(partners) != len(members):
                break
            for i, j in zip(members, partners):
                block_map[i] = j
                exponents[i] = _rotation_onto(
                    segments[j], tuple(1 - b for b in segments[i])
                )
        else:
            generators.append((tuple(block_map), tuple(exponents)))
            order *= 2
    return generators, order


def root_order(lam: Partition) -> int:
    """Exponent lattice: the lcm of the parts, doubled when odd."""
    L = 1
    for p in lam.parts:
        L = L * p // math.gcd(L, p)
    return L if L % 2 == 0 else 2 * L


def _character_exponent(lam: Partition, block_map, exponents, L: int) -> int:
    """Exponent of the character value on the element with this data.

    Rotation by e on a part of size p contributes e times the primitive
    p-th root, and e(p-1) to the sign; the block permutation contributes
    its sign on the even parts, which is _sign of block_map with the odd
    parts held fixed, as parts only go to parts of their own value.  Signs
    embed at exponent L/2.
    """
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
def _rotation_classes(v: int) -> Tuple[Tuple[int, ...], ...]:
    """The least rotations of all 2^v words of 0s and 1s, ascending."""
    words = itertools.product((0, 1), repeat=v)
    return tuple(sorted({min_rotation(w)[0] for w in words}))


def double_cosets(group: GroupSpec, lam: Partition) -> Tuple[Tuple[int, ...], ...]:
    """One marking word per (group, centralizer) double coset, sorted.

    A coset's marking word is the 0/1 word on the points 1..n that marks
    the points it sends into the top block.  The double cosets are the
    orbits of weight-q words under the centralizer, which rotates each part
    and permutes equal parts, with the complement thrown in for the
    extension.  An orbit is a multiset of rotation classes per block of
    equal parts; its lex-least word, the one given here, lists each
    block's least rotations in ascending order."""
    if lam.n != group.n:
        raise ValueError("partition total must match the group degree")
    choices = [
        itertools.combinations_with_replacement(_rotation_classes(v), m)
        for v, m in lam.blocks
    ]
    reps = []
    # ascending classes and segments of fixed length: words come in lex order
    for pick in itertools.product(*choices):
        word = tuple(b for block in pick for segment in block for b in segment)
        if sum(word) != group.q:
            continue
        if group.variant == "extension":
            # segments line up, so nested tuples compare as their words do
            complement = tuple(
                tuple(sorted(min_rotation(1 - b for b in s)[0] for s in block))
                for block in pick
            )
            if complement < pick:
                continue
        reps.append(word)
    return tuple(reps)


def _isotropy_sum(word: Tuple[int, ...], lam: Partition, group: GroupSpec):
    """The character sum over the twisted isotropy, decided on generators.

    Conjugated by a coset with this marking word, the isotropy is the
    stabilizer of the word in the centralizer (for the extension: of the
    word up to complement).  A character sums to the group order over a
    group it is trivial on, and to 0 otherwise; it is trivial exactly when
    it is 1 on every generator.
    Returns (whether the sum is the isotropy order, isotropy order)."""
    generators, order = _isotropy_generators(
        lam, word, group.variant == "extension"
    )
    L = root_order(lam)
    trivial = all(
        _character_exponent(lam, block_map, exponents, L) == 0
        for block_map, exponents in generators
    )
    return trivial, order


def isotropy_inner_product(
    word: Tuple[int, ...], lam: Partition, group: GroupSpec
) -> int:
    """Multiplicity of the trivial character in the twisted restriction of
    the coset with this marking word: 1 when the centralizer character is
    trivial on the isotropy, else 0."""
    word = tuple(word)
    if any(b not in (0, 1) for b in word):
        raise ValueError("%s is not a 0/1 word" % (word,))
    if len(word) != lam.n or sum(word) != group.q:
        raise ValueError(
            "a marking word needs length %d and weight %d, got %s"
            % (lam.n, group.q, word)
        )
    return int(_isotropy_sum(word, lam, group)[0])


def check_oracle_scale(n: int, long_running: bool):
    """Refuse (CapabilityError) an oracle run beyond the supported n."""
    if n <= ORACLE_LIMIT or (long_running and n <= ORACLE_LONG_LIMIT):
        return
    raise CapabilityError(
        "oracle runs stop at n = %d (n = %d with long runs enabled)"
        % (ORACLE_LIMIT, ORACLE_LONG_LIMIT)
    )


def oracle_tables(
    n: int, groups: Sequence[GroupSpec], long_running: bool = False
) -> Tuple[PoincareTable, ...]:
    """Graded invariant dimension of each group, summed over cosets degree
    by degree, one (group, partition) job after another in this process."""
    if any(group.n != n for group in groups):
        raise ValueError("group degree must equal n")
    check_oracle_scale(n, long_running)
    tables = []
    for group in groups:
        counts = Counter()
        for lam in all_partitions(n):
            # one invariant per coset whose isotropy the character is trivial on
            counts[lam.degree] += sum(
                isotropy_inner_product(word, lam, group)
                for word in double_cosets(group, lam)
            )
            log.debug("oracle %s: partition %s done", group.describe(), lam.parts)
        tables.append(PoincareTable.from_dict(counts))
    return tuple(tables)


def oracle_dimension(
    n: int, group: GroupSpec, long_running: bool = False
) -> PoincareTable:
    """The oracle table of one group."""
    return oracle_tables(n, (group,), long_running)[0]


def _stirling_degrees(n: int) -> Counter:
    """Degree table of the full cohomology: permutations counted by n minus
    their cycle count, the coefficients of the product of (1 + k t) over
    k < n."""
    coeffs = [1]
    for k in range(1, n):
        coeffs = [a + k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return Counter(dict(enumerate(coeffs)))


def total_rank_check(n: int, long_running: bool = False) -> bool:
    """Indices of the isotropy subgroups must recover the full cohomology.

    For every product split and the extension, the sum over partitions and
    cosets of the group order divided by the isotropy order is compared
    per degree with the permutation cycle counts.
    """
    check_oracle_scale(n, long_running)
    expected = _stirling_degrees(n)
    groups = [GroupSpec.product(n, q) for q in range(n // 2 + 1)]
    if n % 2 == 0:
        groups.append(GroupSpec.extension(n // 2))
    ok = True
    for group in groups:
        got = Counter()
        for lam in all_partitions(n):
            for word in double_cosets(group, lam):
                h = _isotropy_sum(word, lam, group)[1]
                if group.order % h:
                    raise InternalConsistencyError(
                        "isotropy order %d does not divide the group order" % h
                    )
                got[lam.degree] += group.order // h
        if got != expected:
            ok = False
            log.warning(
                "rank mismatch for %s: got %s expected %s",
                group.describe(),
                dict(sorted(got.items())),
                dict(sorted(expected.items())),
            )
    return ok
