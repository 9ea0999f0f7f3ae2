"""Catalog machinery for the order-2 extension of the half-block product.

For n = 2q the reversal permutation swaps the two value blocks; on generator
labels it dualizes every gap word and re-sorts.  This module enumerates the
pairing structures a swap-fixed label can have, lists the fixed labels
themselves and attaches the reordering sign.  Independently it counts the
fixed labels, with and without their signs, as coefficients of generating
series built from closed-form necklace counts, and combines either route
into the graded dimension of the extension invariants.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Tuple

from .core_combinatorics import all_partitions, binomial, packed_series
from .cycle_invariants import (
    cycle_block_key,
    dual_cycle,
    enumerate_Pi,
    necklace_count,
    selfdual_count_closed_form,
)
from .errors import InternalConsistencyError
from .product_catalog import (
    GeneratorLabel,
    MarkedPartition,
    PoincareTable,
    product_dimension,
)

# Resolved pairing data of one block: m parts of value v carrying k dual
# pairs, of which u join distinct weights (h, v-h) and w join two distinct
# words of equal weight v/2, plus t = m - 2k self-dual words at weight v/2.
BlockPairing = namedtuple("BlockPairing", "value mult marks k u w t")


@dataclass(frozen=True)
class PairedMarkedPartition:
    """A marked partition together with one dual-pair count per block.

    Within each block of m equal parts v, k pairs carry weights summing to
    v, and the remaining m - 2k parts carry weight exactly v/2.  Two
    structures on the same marks but with different pair counts are
    distinct: a pair may join two different words of the same weight v/2.
    """

    marked: MarkedPartition
    pair_counts: Tuple[int, ...]

    def __post_init__(self):
        pair_counts = tuple(self.pair_counts)
        object.__setattr__(self, "pair_counts", pair_counts)
        n = self.marked.partition.n
        if n % 2 != 0:
            raise ValueError("pairing structures need an even total")
        if 2 * self.marked.weight != n:
            raise ValueError("total weight must be half the partition total")
        blocks = self.marked.block_marks()
        if len(pair_counts) != len(blocks):
            raise ValueError("one pair count per block required")
        for (v, marks), k in zip(blocks, pair_counts):
            highs = Counter(d for d in marks if 2 * d > v)
            lows = Counter(d for d in marks if 2 * d < v)
            if Counter(v - d for d in highs.elements()) != lows:
                raise ValueError("marks are not balanced into dual pairs")
            u = sum(highs.values())
            e = len(marks) - 2 * u
            if e and v % 2:
                raise ValueError("odd parts cannot carry half weight")
            if not u <= k or 2 * (k - u) > e:
                raise ValueError("pair count out of range for the marks")

    @property
    def partition(self):
        return self.marked.partition

    def block_structure(self) -> Tuple[BlockPairing, ...]:
        out = []
        for (v, marks), k in zip(self.marked.block_marks(), self.pair_counts):
            u = sum(1 for d in marks if 2 * d > v)
            w = k - u
            t = len(marks) - 2 * k
            out.append(BlockPairing(v, len(marks), marks, k, u, w, t))
        return tuple(out)

    def sort_key(self):
        return (self.partition.parts, self.marked.marks, self.pair_counts)

    def __str__(self):
        return "%s k=%s" % (self.marked, list(self.pair_counts))


@lru_cache(maxsize=None)
def _block_pairings(v: int, m: int):
    """All (marks, k) a block of m parts of value v can carry."""
    out = []
    high_vals = range(v, v // 2, -1)
    for u in range(m // 2 + 1):
        rem = m - 2 * u
        if rem and v % 2:
            continue
        for highs in itertools.combinations_with_replacement(high_vals, u):
            base = list(highs) + [v // 2] * rem + [v - h for h in highs]
            marks = tuple(sorted(base, reverse=True))
            for w in range(rem // 2 + 1):
                out.append((marks, u + w))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_E(n: int) -> Tuple[PairedMarkedPartition, ...]:
    """All pairing structures over partitions of an even n."""
    if n < 2 or n % 2:
        raise ValueError("need an even n >= 2")
    out = []
    for lam in all_partitions(n):
        per_block = [_block_pairings(v, m) for v, m in lam.blocks]
        for combo in itertools.product(*per_block):
            marks = tuple(d for block_marks, _ in combo for d in block_marks)
            ks = tuple(k for _, k in combo)
            out.append(PairedMarkedPartition(MarkedPartition(lam, marks), ks))
    return tuple(sorted(out, key=PairedMarkedPartition.sort_key))


@lru_cache(maxsize=None)
def _selfdual_split(v: int):
    """Split the half-weight words on an even v into (self-dual, orbit pairs)."""
    if v % 2:
        raise ValueError("half weight needs an even part")
    fixed = []
    orbit_pairs = []
    for chi in enumerate_Pi(v, v // 2):
        mate = dual_cycle(chi)
        if mate == chi:
            fixed.append(chi)
        elif cycle_block_key(chi) < cycle_block_key(mate):
            orbit_pairs.append((chi, mate))
    return tuple(fixed), tuple(orbit_pairs)


def _block_labelings(bp: BlockPairing):
    """All canonical cycle tuples realizing one block's pairing structure."""
    v = bp.value
    class_choices = []
    for h, c in sorted(Counter(d for d in bp.marks if 2 * d > v).items()):
        pool = enumerate_Pi(v, h)
        if v % 2 == 0:
            picks = itertools.combinations(pool, c)
        else:
            picks = itertools.combinations_with_replacement(pool, c)
        class_choices.append(
            [sum(((chi, dual_cycle(chi)) for chi in pick), ()) for pick in picks]
        )
    if v % 2 == 0:
        fixed, orbit_pairs = _selfdual_split(v)
        class_choices.append(
            [sum(pick, ()) for pick in itertools.combinations(orbit_pairs, bp.w)]
        )
        class_choices.append(
            list(itertools.combinations(fixed, bp.t))
        )
    for combo in itertools.product(*class_choices):
        cycles = [chi for group in combo for chi in group]
        cycles.sort(key=cycle_block_key)
        yield tuple(cycles)


@lru_cache(maxsize=None)
def _ep_members(n: int):
    """All (structure, label) pairs of swap-fixed generators."""
    out = []
    for pmp in enumerate_E(n):
        per_block = [list(_block_labelings(bp)) for bp in pmp.block_structure()]
        for combo in itertools.product(*per_block):
            cycles = tuple(chi for block in combo for chi in block)
            out.append((pmp, GeneratorLabel(pmp.partition, cycles)))
    out.sort(key=lambda pair: pair[1].sort_key())
    return tuple(out)


def enumerate_EP(n: int) -> Tuple[GeneratorLabel, ...]:
    """All swap-fixed generator labels of the half-weight catalog."""
    return tuple(label for _, label in _ep_members(n))


def epsilon_sign(pmp: PairedMarkedPartition) -> int:
    """Sign the swap acts by on any label with this pairing structure."""
    exponent = 0
    for bp in pmp.block_structure():
        v, m, k = bp.value, bp.mult, bp.k
        exponent += m * (v - 1) * (v - 2) // 2 + (v - 1) ** 2 * k * (2 * k - 1)
    return -1 if exponent % 2 else 1


def enumerate_KP(n: int) -> Tuple[GeneratorLabel, ...]:
    """The swap-fixed labels on which the swap acts by -1."""
    return tuple(
        label for pmp, label in _ep_members(n) if epsilon_sign(pmp) == -1
    )


def _fixed_factors(n: int, signed: bool, v: int):
    """(size, slot, coefficients) of each factor of part value v in the EP
    series or the signed sum; slot j holds t^j.

    With Y = y^v t, the dual pairs (weight h > v/2 with v - h, and on even v
    the O(v) orbit pairs at v/2) give (1 + eps Y^2)^pairs on even v, whose
    blocks take distinct words, and (1 - Y^2)^-pairs on odd v; the S(v)
    self-dual words of even v give (1 + s_v Y)^S(v).  EP takes
    eps = s_v = 1, the signed sum eps = -1 and s_v = (-1)^((v-1)(v-2)/2).
    """
    pairs = sum(necklace_count(v, h) for h in range(v // 2 + 1, v + 1))
    pair_range = range(n // (2 * v) + 1)
    if v % 2:
        yield 2 * v, 2, [binomial(pairs + c - 1, c) for c in pair_range]
        return
    selfdual = selfdual_count_closed_form(v // 2)
    moved = necklace_count(v, v // 2) - selfdual
    if moved % 2:
        raise InternalConsistencyError(
            "half-weight duality orbits of %d are unbalanced" % v
        )
    pairs += moved // 2
    eps = -1 if signed else 1
    s_v = -1 if signed and (v - 1) * (v - 2) // 2 % 2 else 1
    yield 2 * v, 2, [eps ** c * binomial(pairs, c) for c in pair_range]
    yield v, 1, [s_v ** c * binomial(selfdual, c) for c in range(n // v + 1)]


@lru_cache(maxsize=None)
def _fixed_series(n: int):
    """Swap-fixed label counts EP and KP by degree, KP = (EP - signed) / 2."""
    if n < 2 or n % 2:
        raise ValueError("need an even n >= 2")
    ep_slots, signed_slots = (
        packed_series(n, n + 1, partial(_fixed_factors, n, signed))
        for signed in (False, True)
    )
    # slot j counts the labels with j parts, in degree n - j
    ep, kp = Counter(), Counter()
    for j, (count, signed_count) in enumerate(zip(ep_slots, signed_slots)):
        if count:
            ep[n - j] = count
            kp[n - j], odd = divmod(count - signed_count, 2)
            if odd:
                raise InternalConsistencyError(
                    "EP minus the signed count is odd in degree %d" % (n - j)
                )
    return ep, kp


def count_EP_closed_form(n: int) -> int:
    return sum(_fixed_series(n)[0].values())


def count_KP_closed_form(n: int) -> int:
    return sum(_fixed_series(n)[1].values())


def ext_dimension(n: int, method: str = "formula"):
    """Total and graded dimension of the extension invariants.

    Half the sum of the product-invariant dimension and the swap-fixed
    count, minus the kernel count, applied degree by degree.  Both halves
    can come from closed-form counting (method "formula") or from explicit
    label enumeration (method "catalog").
    """
    if n < 2 or n % 2:
        raise ValueError("need an even n >= 2")
    if method not in ("formula", "catalog"):
        raise ValueError("method must be 'formula' or 'catalog'")
    prod = product_dimension(n, n // 2, method=method)
    if method == "formula":
        ep, kp = _fixed_series(n)
    else:
        ep = Counter(label.degree for label in enumerate_EP(n))
        kp = Counter(label.degree for label in enumerate_KP(n))
    graded = {}
    for degree in set(prod.as_dict()) | set(ep) | set(kp):
        p, e, k = prod[degree], ep[degree], kp[degree]
        if (p + e) % 2:
            raise InternalConsistencyError(
                "odd orbit count %d + %d in degree %d" % (p, e, degree)
            )
        value = (p + e) // 2 - k
        if value < 0:
            raise InternalConsistencyError(
                "negative dimension in degree %d" % degree
            )
        graded[degree] = value
    table = PoincareTable.from_dict(graded)
    return table.total, table
