"""The oracle's blocks and double cosets by listing, kept as the tests'
reference.

The oracle multiplies two polynomials per block (v, m) of equal parts, P
and T, and decides each orbit of a block on generators of its stabilizer,
reading the stabilizer's order from its structure.  listed_block lists a
block instead: every 0/1 word of length vm, grouped into orbits by search
on the centralizer's generators, each orbit's stabilizer listed element by
element and the character summed over it, so the tests can compare P and
T weight by weight and assert on every orbit that the reduced sum is 0 or
the stabilizer's order.  The exact cyclotomic-integer arithmetic that
reduces such a sum, the character evaluated on a centralizer element given
as a permutation, and the centralizer's presentation by cycles and block
swaps live here too: the oracle itself only ever reads an exponent as 0
or, on a complementing element, as a sign.

The whole-partition anchor reads no block: generic_double_cosets lists a
group's double cosets on a partition as orbits of the group acting by
conjugation on a conjugacy class of the symmetric group, and
listed_dimension decides each one with listed_inner_product.  Its graded
count checks the oracle's product over the blocks itself.

The references are pure, and several tests read the same ones, so
listed_block, listed_dimension and zeta_failures, the check that the
character is multiplicative on every centralizer at n, are each computed
once per session.
"""

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from braidinv.character_oracle import GroupSpec, _character_exponent, root_order
from braidinv.core_combinatorics import Partition, PoincareTable, all_partitions
from braidinv.errors import InternalConsistencyError


def _comp(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Images of the composition a after b, both 1-based image tuples."""
    return tuple([a[x - 1] for x in b])


def _from_cycles(n: int, *cycles: Tuple[int, ...]) -> Tuple[int, ...]:
    """Images of the product of disjoint cycles on 1..n."""
    out = list(range(1, n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a - 1] = b
    return tuple(out)


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


def block_start(lam: Partition, i: int) -> int:
    """0-based offset of the i-th part's interval of lam (i is 1-based)."""
    if not 1 <= i <= lam.part_count:
        raise ValueError("part index out of range")
    return sum(lam.parts[: i - 1])


@lru_cache(maxsize=None)
def build_centralizer(lam: Partition) -> CentralizerPresentation:
    """Consecutive cycles and adjacent rigid block swaps generating it."""
    n = lam.n
    generators = []
    for i in range(1, lam.part_count + 1):
        start = block_start(lam, i)
        generators.append(
            _from_cycles(n, tuple(range(start + 1, start + lam.parts[i - 1] + 1)))
        )
    for i in range(1, lam.part_count):
        if lam.parts[i - 1] != lam.parts[i]:
            continue
        v = lam.parts[i - 1]
        start = block_start(lam, i)
        swaps = [(start + t + 1, start + v + t + 1) for t in range(v)]
        generators.append(_from_cycles(n, *swaps))
    return CentralizerPresentation(lam, tuple(generators))


def group_generators(group: GroupSpec) -> Tuple[Tuple[int, ...], ...]:
    """Adjacent transpositions of each factor, plus for the extension the
    block-swapping reversal i -> n + 1 - i."""
    out = []
    for i in range(1, group.n):
        if i == group.n - group.q:
            continue
        images = list(range(1, group.n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        out.append(tuple(images))
    if group.variant == "extension":
        out.append(tuple(range(group.n, 0, -1)))
    return tuple(out)


def _cycles(s: Tuple[int, ...]):
    """The cycles of a permutation (1-based images), each listed from its
    least point in the order s visits them."""
    seen = set()
    out = []
    for start in range(1, len(s) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        while s[cycle[-1] - 1] != start:
            cycle.append(s[cycle[-1] - 1])
            seen.add(cycle[-1])
        out.append(tuple(cycle))
    return out


@lru_cache(maxsize=None)
def _conjugacy_classes(n: int):
    """Every permutation of 1..n in lex order, bucketed by cycle type."""
    classes = {}
    for s in itertools.permutations(range(1, n + 1)):
        lengths = sorted((len(c) for c in _cycles(s)), reverse=True)
        classes.setdefault(tuple(lengths), []).append(s)
    return classes


def generic_double_cosets(group: GroupSpec, lam: Partition):
    """One permutation per (group, centralizer) double coset, sorted.

    The centralizer Z is that of the cycle product c whose cycles run
    through the consecutive intervals of lam, and H s Z goes to the
    H-conjugacy orbit of s c s^-1, one to one.  So the double cosets are
    the orbits of the group's generators, acting by conjugation, on the
    conjugacy class of c.  Each is given by the permutation s carrying
    c's cycles onto those of the orbit's least element, interval by
    interval and from each cycle's least point, so s c s^-1 is that
    element."""
    if lam.n != group.n:
        raise ValueError("partition total must match the group degree")
    n = group.n
    # y -> g y g^-1: read y at g^-1's images, then map each through g
    conjugations = []
    for g in group_generators(group):
        inverse = [0] * n
        for x, y in enumerate(g):
            inverse[y - 1] = x
        conjugations.append(((0,) + g, operator.itemgetter(*inverse)))
    seen = set()
    reps = []
    for x in _conjugacy_classes(n)[lam.parts]:
        if x in seen:
            continue
        seen.add(x)
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g, read in conjugations:
                y2 = tuple(map(g.__getitem__, read(y)))
                if y2 not in seen:
                    seen.add(y2)
                    frontier.append(y2)
        by_length = sorted(_cycles(x), key=len, reverse=True)
        reps.append(tuple(p for cycle in by_length for p in cycle))
    return tuple(sorted(reps))


def _assemble(lam: Partition, block_map, exponents) -> Tuple[int, ...]:
    """Images of the element sending part i rigidly onto part block_map[i]
    after rotating part i by its exponent."""
    starts = list(itertools.accumulate(lam.parts, initial=0))
    out = [0] * lam.n
    for i in range(lam.part_count):
        v = lam.parts[i]
        target = starts[block_map[i]]
        e = exponents[i]
        for t in range(v):
            out[starts[i] + t] = target + (t + e) % v + 1
    return tuple(out)


def _decompose(lam: Partition, images: Tuple[int, ...]):
    """Unique (block_map, exponents) of a centralizer element, else None."""
    starts = [block_start(lam, i + 1) for i in range(lam.part_count)]
    block_of = {}
    for i in range(lam.part_count):
        for t in range(lam.parts[i]):
            block_of[starts[i] + t + 1] = i
    block_map = [0] * lam.part_count
    exponents = [0] * lam.part_count
    for i in range(lam.part_count):
        target = block_of[images[starts[i]]]
        if lam.parts[target] != lam.parts[i]:
            return None
        block_map[i] = target
        exponents[i] = (images[starts[i]] - starts[target] - 1) % lam.parts[i]
    if _assemble(lam, block_map, exponents) != images:
        return None
    return tuple(block_map), tuple(exponents)


@lru_cache(maxsize=None)
def _cyclotomic(L: int) -> Tuple[int, ...]:
    """Coefficients of the L-th cyclotomic polynomial, ascending degree."""
    if L == 1:
        return (-1, 1)
    num = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d:
            continue
        num = _polydiv(num, list(_cyclotomic(d)))
    return tuple(num)


def _polydiv(num, den):
    """Exact polynomial quotient over the integers."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        if c % lead:
            raise InternalConsistencyError("inexact polynomial division")
        c //= lead
        out[shift] = c
        if c:
            for k, dk in enumerate(den):
                num[shift + k] -= c * dk
    if any(num):
        raise InternalConsistencyError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def _reduced(order: int, coeffs: Tuple[int, ...]) -> Tuple[int, ...]:
    phi = _cyclotomic(order)
    deg = len(phi) - 1
    r = list(coeffs)
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if not c:
            continue
        shift = i - deg
        for k, pk in enumerate(phi):
            r[shift + k] -= c * pk
    r = r[:deg]
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


@dataclass(frozen=True)
class CyclotomicSum:
    """An integer combination of L-th roots of unity, compared canonically."""

    order: int
    coeffs: Tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if len(coeffs) != self.order:
            raise ValueError("need one coefficient per exponent 0..L-1")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def monomial(cls, order: int, exponent: int, coefficient: int = 1):
        coeffs = [0] * order
        coeffs[exponent % order] = coefficient
        return cls(order, tuple(coeffs))

    def reduced(self) -> Tuple[int, ...]:
        return _reduced(self.order, self.coeffs)

    def __add__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        if self.order != other.order:
            raise ValueError("mismatched orders")
        return CyclotomicSum(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        if self.order != other.order:
            raise ValueError("mismatched orders")
        out = [0] * self.order
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % self.order] += a * b
        return CyclotomicSum(self.order, tuple(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        if self.order != other.order:
            return False
        return self.reduced() == other.reduced()

    def __hash__(self):
        return hash((self.order, self.reduced()))

    def integer_value(self) -> Optional[int]:
        """The sum as a plain integer, or None if it is not one."""
        r = self.reduced()
        if len(r) > 1:
            return None
        return r[0] if r else 0


def zeta_value(lam: Partition, z: Tuple[int, ...]) -> CyclotomicSum:
    """The distinguished character of the centralizer, evaluated exactly."""
    z = tuple(z)
    if sorted(z) != list(range(1, lam.n + 1)):
        raise ValueError("%s is not a permutation of 1..%d" % (z, lam.n))
    data = _decompose(lam, z)
    if data is None:
        raise ValueError("%s does not centralize the cycle product" % (z,))
    return CyclotomicSum.monomial(root_order(lam), _character_exponent(lam, *data))


def stabilizer(lam: Partition, word, flip: bool = False):
    """The centralizer elements z that keep a 0/1 word on the points 1..n
    (the letter at z(x) is the letter at x), or with flip complement it,
    as their (block_map, exponents) data.

    Backtracks part by part: part i may go to an unused part j of its value
    with rotation e only if that carries part i's letters onto part j's.
    """
    starts = [block_start(lam, i + 1) for i in range(lam.part_count)]
    segments = [tuple(word[s:s + v]) for s, v in zip(starts, lam.parts)]
    options = []
    for i, v in enumerate(lam.parts):
        want = tuple(1 - b for b in segments[i]) if flip else segments[i]
        options.append([
            (j, e)
            for j in range(lam.part_count)
            if lam.parts[j] == v
            for e in range(v)
            if segments[j][e:] + segments[j][:e] == want
        ])
    block_map = [0] * lam.part_count
    exponents = [0] * lam.part_count
    used = [False] * lam.part_count

    def place(i):
        if i == lam.part_count:
            yield tuple(block_map), tuple(exponents)
            return
        for j, e in options[i]:
            if not used[j]:
                used[j] = True
                block_map[i], exponents[i] = j, e
                yield from place(i + 1)
                used[j] = False

    return place(0)


@lru_cache(maxsize=None)
def zeta_failures(n: int):
    """The products on which zeta_value is not multiplicative, as
    (lam, z1, z2) over every pair of elements of the centralizer of every
    partition lam of n; empty when each is a character."""
    out = []
    for lam in all_partitions(n):
        elements = [_assemble(lam, *data) for data in stabilizer(lam, (0,) * n)]
        values = {z: zeta_value(lam, z) for z in elements}
        out.extend(
            (lam, z1, z2)
            for z1 in elements
            for z2 in elements
            if values[_comp(z1, z2)] != values[z1] * values[z2]
        )
    return tuple(out)


def _character_sum(lam: Partition, elements):
    """The character summed over the listed elements, each given as its
    (block_map, exponents) data, as a plain integer (None when the sum is
    not one), and how many elements there are."""
    counts = [0] * root_order(lam)
    for block_map, exponents in elements:
        counts[_character_exponent(lam, block_map, exponents)] += 1
    return CyclotomicSum(root_order(lam), tuple(counts)).integer_value(), sum(counts)


@lru_cache(maxsize=None)
def listed_block(v: int, m: int):
    """P and T of the block (v, m), coefficients by weight 0..vm, listed.

    Every 0/1 word of length vm lies in one orbit of the generators of the
    centralizer of lam = (v^m), found by search.  On each orbit, the
    character summed over the listed stabilizer of its first word must
    reduce to 0 or the stabilizer's order, and the orbit's size times that
    order must be the block's order v^m m!.  An orbit the character is
    trivial on counts 1 in P at its weight.  When it also holds the
    complement of its word, the elements complementing the word form a
    coset of the stabilizer; the character summed over them must be plus
    or minus the stabilizer's order, and that sign counts in T.  Anything
    else raises."""
    lam = Partition((v,) * m)
    n, size = v * m, v ** m * math.factorial(m)
    identity = tuple(range(1, n + 1))
    # fixing every point moves no word; at n = 1 that is every generator,
    # so itemgetter never sees a single index and returns a scalar
    moves = [
        operator.itemgetter(*(x - 1 for x in g))
        for g in build_centralizer(lam).generators
        if g != identity
    ]
    P, T = [0] * (n + 1), [0] * (n + 1)
    seen = set()
    for word in itertools.product((0, 1), repeat=n):
        if word in seen:
            continue
        orbit, frontier = {word}, [word]
        while frontier:
            w = frontier.pop()
            for move in moves:
                w2 = move(w)
                if w2 not in orbit:
                    orbit.add(w2)
                    frontier.append(w2)
        seen |= orbit
        value, order = _character_sum(lam, stabilizer(lam, word))
        if value not in (0, order) or len(orbit) * order != size:
            raise InternalConsistencyError(
                "the orbit of %s in the block (%d, %d) has %d words, a "
                "stabilizer of order %d and a character sum of %r"
                % (word, v, m, len(orbit), order, value)
            )
        if not value:
            continue
        P[sum(word)] += 1
        if tuple(1 - b for b in word) in orbit:
            signed, count = _character_sum(lam, stabilizer(lam, word, flip=True))
            if count != order or signed not in (order, -order):
                raise InternalConsistencyError(
                    "the %d elements complementing %s sum the character to %r"
                    % (count, word, signed)
                )
            T[sum(word)] += signed // order
    return tuple(P), tuple(T)


def listed_inner_product(word, lam: Partition, group: GroupSpec):
    """(multiplicity of the trivial character in the twisted restriction of
    the coset with this marking word, isotropy order).

    Conjugated by the coset, the isotropy is the stabilizer of the word in
    the centralizer (for the extension: of the word up to complement).  The
    character summed over it must reduce to 0 or the isotropy order;
    anything else would violate the character axioms and raises."""
    flips = (False, True) if group.variant == "extension" else (False,)
    value, order = _character_sum(
        lam, (data for flip in flips for data in stabilizer(lam, word, flip))
    )
    if value not in (0, order):
        raise InternalConsistencyError(
            "character sum for %s on %s reduced to %r, expected 0 or %d"
            % (lam, word, value, order)
        )
    return int(value == order), order


@lru_cache(maxsize=None)
def listed_dimension(n: int, group: GroupSpec) -> PoincareTable:
    """Graded invariant dimension of the group, from every double coset of
    every partition lam, as generic_double_cosets gives it, decided by
    listed_inner_product on the word marking the points the coset's
    permutation sends into the top block."""
    counts = Counter()
    for lam in all_partitions(n):
        for rep in generic_double_cosets(group, lam):
            word = tuple(int(p > n - group.q) for p in rep)
            counts[lam.degree] += listed_inner_product(word, lam, group)[0]
    return PoincareTable.from_dict(counts)
