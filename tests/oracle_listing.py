"""The oracle's cosets and isotropy by listing, kept as the tests' reference.

The oracle decides each character sum on generators of the isotropy and
reads the isotropy order from its structure.  This module lists the
isotropy element by element instead and sums the character over it, so
the tests can check both the generator verdict and the order, and assert
on every coset that the reduced sum is 0 or the isotropy order.  The
exact cyclotomic-integer arithmetic that reduces such a sum, and the
character evaluated on a centralizer element given as a permutation,
live here too: the oracle itself only ever reads an exponent as 0 or,
on a complementing element, as a sign.  So does the centralizer's
presentation by cycles and block swaps, which the coset search acts by.
The oracle counts each partition's invariants as a coefficient of a
product of per-block polynomials; the per-coset walk it replaced is kept
here: double_cosets, the depth-first walk over the blocks' picks pruned
by weight and, for the extension, by the side of each pick's complement,
gives one marking word per double coset, and isotropy_inner_product
decides each one block by block.  The tests check, partition by
partition, that the walk's invariant count is the block product's.
The ground truth for the walk's coset words lives here as well: orbits
of the group acting by conjugation on a conjugacy class of the symmetric
group, which never read a marking word, and the breadth-first search over
all C(n, q) marking words that the per-block construction replaced,
which must give the same words in the same order.  So must the unpruned
per-block walk, which builds every pick of rotation classes and then
drops the wrong weights.  The oracle decides the isotropy block by block
and multiplies the signs of the blocks' complementing elements; the
whole-partition decision, on generators of the stabilizer of the full
word with the complementing element among them, all on one exponent
lattice, is kept here to check it coset by coset.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from braidinv.character_oracle import (
    GroupSpec,
    _block_isotropy,
    _character_exponent,
    _classes,
    _isotropy_generators,
    root_order,
)
from braidinv.core_combinatorics import Partition, min_rotation
from braidinv.errors import InternalConsistencyError


def _comp(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Images of the composition a after b, both 1-based image tuples."""
    return tuple(a[x - 1] for x in b)


def _checked(images, n: int) -> Tuple[int, ...]:
    """The images as a tuple, once they are known to be a bijection of 1..n."""
    images = tuple(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("%s is not a permutation of 1..%d" % (images, n))
    return images


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


def searched_double_cosets(group: GroupSpec, lam: Partition):
    """One marking word per (group, centralizer) double coset, sorted, found
    by searching the orbits of the centralizer's generators.

    A coset's marking word is the 0/1 word on the points 1..n that marks
    the points it sends into the top block.  The double cosets are the
    orbits of weight-q words under the centralizer's position action, with
    the complement thrown in for the extension; each is given by its
    lex-least word."""
    if lam.n != group.n:
        raise ValueError("partition total must match the group degree")
    n, q = group.n, group.q
    identity = tuple(range(1, n + 1))
    # fixing every point moves no word; at n = 1 that is every generator,
    # so itemgetter never sees a single index and returns a scalar
    moves = [
        operator.itemgetter(*(x - 1 for x in g))
        for g in build_centralizer(lam).generators
        if g != identity
    ]
    # marked sets in lex order give their words in descending lex order
    words = []
    for marked in itertools.combinations(range(n), q):
        word = [0] * n
        for x in marked:
            word[x] = 1
        words.append(tuple(word))
    seen = set()
    reps = []
    for seed in reversed(words):
        if seed in seen:
            continue
        # the first word of an orbit met in lex order is its least
        reps.append(seed)
        seen.add(seed)
        frontier = [seed]
        while frontier:
            w = frontier.pop()
            nexts = [move(w) for move in moves]
            if group.variant == "extension":
                nexts.append(tuple(1 - b for b in w))
            for w2 in nexts:
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
    return tuple(reps)


@lru_cache(maxsize=None)
def _rotation_classes(v: int) -> Tuple[Tuple[int, ...], ...]:
    """The least rotations of all 2^v words of 0s and 1s, ascending."""
    words = itertools.product((0, 1), repeat=v)
    return tuple(sorted({min_rotation(w)[0] for w in words}))


def filtered_double_cosets(group: GroupSpec, lam: Partition):
    """One marking word per (group, centralizer) double coset, sorted, from
    every pick of rotation classes, the wrong weights dropped.

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


@lru_cache(maxsize=None)
def _walk_picks(v: int, m: int):
    """The walk's picks of a block: the multisets of m rotation classes of
    length v, in lex order, each as (its letters, its weight, side), and
    the same picks grouped by weight: entry w holds the picks of weight w,
    in lex order.

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
    blocks = [_walk_picks(v, m) for v, m in lam.blocks]
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
        block_trivial, block_order, block_sign = _block_isotropy(
            Partition((v,) * m), word[start:end]
        )
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


def whole_isotropy_sum(word: Tuple[int, ...], lam: Partition, group: GroupSpec):
    """The character sum over the twisted isotropy, decided on generators.

    Conjugated by a coset with this marking word, the isotropy is the
    stabilizer of the word in the centralizer (for the extension: of the
    word up to complement, which the complementing element, when there is
    one, joins as a generator, doubling the order).  A character sums to
    the group order over a group it is trivial on, and to 0 otherwise; it
    is trivial exactly when it is 1 on every generator, each evaluated on
    the whole partition's exponent lattice.
    Returns (whether the sum is the isotropy order, isotropy order)."""
    generators, order, complement = _isotropy_generators(lam, word)
    if group.variant == "extension" and complement is not None:
        generators = generators + [complement]
        order *= 2
    trivial = all(
        _character_exponent(lam, block_map, exponents) == 0
        for block_map, exponents in generators
    )
    return trivial, order


def _assemble(lam: Partition, block_map, exponents) -> Tuple[int, ...]:
    """Images of the element sending part i rigidly onto part block_map[i]
    after rotating part i by its exponent."""
    starts = [block_start(lam, i + 1) for i in range(lam.part_count)]
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
    def zero(cls, order: int) -> "CyclotomicSum":
        return cls(order, (0,) * order)

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
    z = _checked(z, lam.n)
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


def listed_isotropy_sum(word, lam: Partition, group: GroupSpec):
    """Coefficient counts of the character sum over the twisted isotropy.

    Conjugated by a coset with this marking word, the isotropy is the
    stabilizer of the word in the centralizer (for the extension: of the
    word up to complement).
    Returns (counts per exponent, isotropy order)."""
    flips = (False, True) if group.variant == "extension" else (False,)
    counts = [0] * root_order(lam)
    for flip in flips:
        for block_map, exponents in stabilizer(lam, word, flip):
            counts[_character_exponent(lam, block_map, exponents)] += 1
    return counts, sum(counts)


def listed_inner_product(word, lam: Partition, group: GroupSpec):
    """(multiplicity of the trivial character, isotropy order) from the
    listed sum, which must reduce to 0 or the isotropy order; anything else
    would violate the character axioms and raises."""
    counts, total = listed_isotropy_sum(word, lam, group)
    value = CyclotomicSum(root_order(lam), tuple(counts)).integer_value()
    if value == 0:
        return 0, total
    if value == total:
        return 1, total
    raise InternalConsistencyError(
        "character sum for %s on %s reduced to %r, expected 0 or %d"
        % (lam, word, value, total)
    )
