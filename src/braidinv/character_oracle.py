"""Brute-force verification path, independent of the catalog formulas.

Builds the centralizer of the canonical cycle product of a partition, its
distinguished 1-dimensional character, the double cosets against a chosen
subgroup, and the Mackey inner products with the trivial character, using
exact cyclotomic integer arithmetic throughout.  Nothing here consults the
admissibility predicate or the counting formulas, so agreement between the
two paths is a real check.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from .core_combinatorics import Partition, all_partitions
from .errors import CapabilityError, InternalConsistencyError
from .product_catalog import PoincareTable

log = logging.getLogger(__name__)

GENERIC_COSET_LIMIT = 10
ORACLE_LIMIT = 8
ORACLE_LONG_LIMIT = 10


def _comp(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Images of the composition a after b, both 1-based image tuples."""
    return tuple(a[x - 1] for x in b)


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


def _cycle_count(images: Tuple[int, ...]) -> int:
    seen = [False] * len(images)
    count = 0
    for i in range(len(images)):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j] - 1
    return count


def _from_cycles(n: int, *cycles: Tuple[int, ...]) -> Tuple[int, ...]:
    """Images of the product of disjoint cycles on 1..n."""
    out = list(range(1, n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a - 1] = b
    return tuple(out)


def _checked(images, n: int) -> Tuple[int, ...]:
    """The images as a tuple, once they are known to be a bijection of 1..n."""
    images = tuple(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("%s is not a permutation of 1..%d" % (images, n))
    return images


@dataclass(frozen=True)
class GroupSpec:
    """One of the subgroups the oracle can invariantize against."""

    variant: str
    n: int
    q: int

    def __post_init__(self):
        if self.variant not in ("product", "extension", "full"):
            raise ValueError("unknown group variant")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.variant == "product" and not 0 <= self.q <= self.n:
            raise ValueError("need 0 <= q <= n")
        if self.variant == "extension" and self.n != 2 * self.q:
            raise ValueError("the extension needs n = 2q")
        if self.variant == "full" and self.q != 0:
            raise ValueError("the full group takes q = 0")

    @classmethod
    def product(cls, n: int, q: int) -> "GroupSpec":
        return cls("product", n, q)

    @classmethod
    def extension(cls, q: int) -> "GroupSpec":
        return cls("extension", 2 * q, q)

    @classmethod
    def full(cls, n: int) -> "GroupSpec":
        return cls("full", n, 0)

    @property
    def order(self) -> int:
        if self.variant == "full":
            return math.factorial(self.n)
        base = math.factorial(self.n - self.q) * math.factorial(self.q)
        return 2 * base if self.variant == "extension" else base

    def sigma(self) -> Tuple[int, ...]:
        """The block-swapping reversal i -> n + 1 - i."""
        return tuple(range(self.n, 0, -1))

    def generators(self) -> Tuple[Tuple[int, ...], ...]:
        """Adjacent transpositions of each factor, plus the reversal."""
        out = []
        split = self.n if self.variant == "full" else self.n - self.q
        for i in range(1, self.n):
            if i == split:
                continue
            images = list(range(1, self.n + 1))
            images[i - 1], images[i] = images[i], images[i - 1]
            out.append(tuple(images))
        if self.variant == "extension":
            out.append(self.sigma())
        return tuple(out)

    def describe(self) -> str:
        if self.variant == "full":
            return "full(%d)" % self.n
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


def _value_runs(lam: Partition):
    """Per distinct part value: the 0-based run of part indices carrying it."""
    runs = []
    pos = 0
    for v, m in lam.blocks:
        runs.append((v, tuple(range(pos, pos + m))))
        pos += m
    return runs


def _assemble(lam: Partition, block_map, exponents) -> Tuple[int, ...]:
    """Images of the element sending part i rigidly onto part block_map[i]
    after rotating part i by its exponent."""
    starts = [lam.block_start(i + 1) for i in range(lam.part_count)]
    out = [0] * lam.n
    for i in range(lam.part_count):
        v = lam.parts[i]
        target = starts[block_map[i]]
        e = exponents[i]
        for t in range(v):
            out[starts[i] + t] = target + (t + e) % v + 1
    return tuple(out)


def _stabilizer(lam: Partition, word: Tuple[int, ...], flip: bool = False):
    """The centralizer elements z that keep a 0/1 word on the points 1..n
    (the letter at z(x) is the letter at x), or with flip complement it,
    as their (block_map, exponents) data.

    Backtracks part by part: part i may go to an unused part j of its value
    with rotation e only if that carries part i's letters onto part j's.
    """
    starts = [lam.block_start(i + 1) for i in range(lam.part_count)]
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


def root_order(lam: Partition) -> int:
    """Exponent lattice: the lcm of the parts, doubled when odd."""
    L = 1
    for p in lam.parts:
        L = L * p // math.gcd(L, p)
    return L if L % 2 == 0 else 2 * L


def _decompose(lam: Partition, images: Tuple[int, ...]):
    """Unique (block_map, exponents) of a centralizer element, else None."""
    starts = [lam.block_start(i + 1) for i in range(lam.part_count)]
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


def _character_exponent(lam: Partition, runs, block_map, exponents, L: int) -> int:
    """Exponent of the character value on the element with this data;
    runs is _value_runs(lam).

    Rotation by e on a part of size p contributes e times the primitive
    p-th root, and e(p-1) to the sign; the block permutation contributes
    its sign on each even part value.  Signs embed at exponent L/2.
    """
    root = 0
    sign_parity = 0
    for p, e in zip(lam.parts, exponents):
        root += e * (L // p)
        sign_parity += e * (p - 1)
    for v, indices in runs:
        if v % 2:
            continue
        placed = tuple(block_map[i] for i in indices)
        rank = {b: t for t, b in enumerate(sorted(placed))}
        if _sign(tuple(rank[b] + 1 for b in placed)) == -1:
            sign_parity += 1
    return (root + (sign_parity % 2) * (L // 2)) % L


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
    L = root_order(lam)
    block_map, exponents = data
    exponent = _character_exponent(lam, _value_runs(lam), block_map, exponents, L)
    return CyclotomicSum.monomial(L, exponent)


def _coset_words(group: GroupSpec, lam: Partition):
    """Orbits of weight-q bit words under the centralizer position action,
    with the complement thrown in for the extension.  One lex-least word
    per orbit, sorted."""
    n, q = group.n, group.q
    if group.variant == "full":
        # a single coset; the all-late word reconstructs the identity
        return [tuple([0] * n)]
    z_gens = build_centralizer(lam).generators
    words = {
        tuple(int(x in marked) for x in range(n))
        for marked in itertools.combinations(range(n), q)
    }
    reps = []
    while words:
        seed = min(words)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            w = frontier.pop()
            nexts = [tuple(w[g[i] - 1] for i in range(n)) for g in z_gens]
            if group.variant == "extension":
                nexts.append(tuple(1 - b for b in w))
            for w2 in nexts:
                if w2 not in orbit:
                    orbit.add(w2)
                    frontier.append(w2)
        reps.append(min(orbit))
        words -= orbit
    return sorted(reps)


def _perm_of_word(word: Tuple[int, ...]) -> Tuple[int, ...]:
    """A permutation whose marking is the given word: unmarked positions
    take the low values in order, marked positions the high ones."""
    n = len(word)
    q = sum(word)
    low = iter(range(1, n - q + 1))
    high = iter(range(n - q + 1, n + 1))
    return tuple(next(high) if b else next(low) for b in word)


def double_cosets(
    group: GroupSpec, lam: Partition, mode: str = "auto"
) -> Tuple[Tuple[int, ...], ...]:
    """One representative per (group, centralizer) double coset.

    mode "generic" partitions all of the symmetric group by a two-sided
    orbit search and is the ground truth; mode "delta" enumerates orbits
    of marking words, which the generic mode confirms at small n.  "auto"
    switches to words above n = 6.
    """
    if lam.n != group.n:
        raise ValueError("partition total must match the group degree")
    if mode == "auto":
        mode = "generic" if group.n <= 6 else "delta"
    if mode == "delta":
        return tuple(_perm_of_word(w) for w in _coset_words(group, lam))
    if mode != "generic":
        raise ValueError("mode must be 'auto', 'generic' or 'delta'")
    n = group.n
    if n > GENERIC_COSET_LIMIT:
        raise CapabilityError(
            "generic double cosets stop at n = %d; use the word mode"
            % GENERIC_COSET_LIMIT
        )
    right = build_centralizer(lam).generators
    left = list(group.generators())
    todo = set(itertools.permutations(range(1, n + 1)))
    reps = []
    while todo:
        seed = min(todo)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            s = frontier.pop()
            for g in left:
                s2 = _comp(g, s)
                if s2 not in orbit:
                    orbit.add(s2)
                    frontier.append(s2)
            for z in right:
                s2 = _comp(s, z)
                if s2 not in orbit:
                    orbit.add(s2)
                    frontier.append(s2)
        reps.append(min(orbit))
        todo -= orbit
    return tuple(sorted(reps))


def _isotropy_sum(s: Tuple[int, ...], lam: Partition, group: GroupSpec):
    """Coefficient counts of the character sum over the twisted isotropy.

    Conjugated by s, the isotropy is the stabilizer in the centralizer of
    the marking word of s (for the extension: of the word up to complement).
    Returns (counts per exponent, isotropy order)."""
    word = tuple(int(x > group.n - group.q) for x in s)
    flips = (False, True) if group.variant == "extension" else (False,)
    L = root_order(lam)
    runs = _value_runs(lam)
    counts = [0] * L
    for flip in flips:
        for block_map, exponents in _stabilizer(lam, word, flip):
            counts[_character_exponent(lam, runs, block_map, exponents, L)] += 1
    return counts, sum(counts)


def isotropy_inner_product(
    s: Tuple[int, ...], lam: Partition, group: GroupSpec
) -> int:
    """Multiplicity of the trivial character in the twisted restriction.

    The reduced character sum must equal 0 or the isotropy order; anything
    else would violate the character axioms and raises.
    """
    s = _checked(s, lam.n)
    counts, total = _isotropy_sum(s, lam, group)
    value = CyclotomicSum(root_order(lam), tuple(counts)).integer_value()
    if value == 0:
        return 0
    if value == total:
        return 1
    raise InternalConsistencyError(
        "character sum for %s on %s reduced to %r, expected 0 or %d"
        % (lam, s, value, total)
    )


def _check_oracle_scale(n: int, long_running: bool):
    if n <= ORACLE_LIMIT:
        return
    if long_running and n <= ORACLE_LONG_LIMIT:
        return
    raise CapabilityError(
        "oracle runs stop at n = %d (n = %d with long runs enabled)"
        % (ORACLE_LIMIT, ORACLE_LONG_LIMIT)
    )


def _lambda_contribution(args):
    group, parts = args
    lam = Partition(parts)
    hits = 0
    for s in double_cosets(group, lam):
        hits += isotropy_inner_product(s, lam, group)
    return lam.degree, hits


def oracle_dimension(
    n: int,
    group: GroupSpec,
    long_running: bool = False,
    workers: int = 1,
) -> PoincareTable:
    """Graded invariant dimension summed over cosets, degree by degree.

    The pool never exceeds the job count or the CPUs this process may run
    on: the fork start method starts every requested worker up front.
    """
    if group.n != n:
        raise ValueError("group degree must equal n")
    _check_oracle_scale(n, long_running)
    jobs = [(group, lam.parts) for lam in all_partitions(n)]
    workers = min(workers, len(jobs), len(os.sched_getaffinity(0)))
    counts = Counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_lambda_contribution, jobs))
    else:
        results = []
        for job in jobs:
            results.append(_lambda_contribution(job))
            log.debug("oracle %s: partition %s done", group.describe(), job[1])
    for degree, hits in sorted(results):
        if hits:
            counts[degree] += hits
    return PoincareTable.from_dict(counts)


def _stirling_degrees(n: int) -> Counter:
    """Degree table of the full cohomology: permutations counted by
    n minus their cycle count."""
    counts = Counter()
    for images in itertools.permutations(range(1, n + 1)):
        counts[n - _cycle_count(images)] += 1
    return counts


def total_rank_check(n: int, long_running: bool = False) -> bool:
    """Indices of the isotropy subgroups must recover the full cohomology.

    For every product split and the extension, the sum over partitions and
    cosets of the group order divided by the isotropy order is compared
    per degree with the permutation cycle counts.
    """
    _check_oracle_scale(n, long_running)
    expected = _stirling_degrees(n)
    groups = [GroupSpec.product(n, q) for q in range(n // 2 + 1)]
    if n % 2 == 0:
        groups.append(GroupSpec.extension(n // 2))
    ok = True
    for group in groups:
        got = Counter()
        for lam in all_partitions(n):
            for s in double_cosets(group, lam):
                h = _isotropy_sum(s, lam, group)[1]
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
