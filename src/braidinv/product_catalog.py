"""Generator catalog for the block-product symmetric group action.

A generator is labeled by a partition of n together with one admissible gap
word per part, total weight q, arranged canonically inside each run of equal
parts: weights weakly decreasing, ties broken by ascending word, and for
even part values no repeated (weight, word) pair.  Dimensions are computed
two independent ways, and the two must agree.  The listing route lists and
checks the words and word tuples of each block (v, m) of equal parts, and
counts each partition's labels as the products of checked block tuples
whose weights sum to q: every check of a label looks at one block, so a
label passes exactly when each of its block tuples does.  The product of
a partition's block counts, truncated at x^top, is built once per
(n, top) and serves every q <= top: product_tables(n) reads every split
q <= n/2 off those to x^(n/2), product_dimension one split off those to
x^q, so a small q pools no heavier word.  The counting route reads the
coefficients of a generating series whose factors take their exponents
from closed-form necklace counts, so nothing is listed; product_tables
reads every split off one series.  enumerate_generators builds the
labels themselves.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from typing import Dict, List, Tuple

from .core_combinatorics import (
    Frozen,
    Partition,
    PoincareTable,
    all_partitions,
    binomial,
    packed_series,
    truncated_product,
)
from .cycle_invariants import (
    InvariantCycle,
    admissible_words,
    enumerate_Pi,
    necklace_count,
)
from .errors import listing_fault


def check_label(partition: Partition, cycles: Tuple[InvariantCycle, ...]):
    """cycles, checked to make a label on partition, else ValueError: one
    per part, each admissible, of its part's length, and ascending in
    cycle_block_key inside each run of equal parts, no repeat on even parts."""
    parts = partition.parts
    if len(cycles) != len(parts):
        raise ValueError("one cycle per part required")
    last_part = last_key = None
    for p, chi in zip(parts, cycles):
        if chi.length != p:
            raise ValueError("cycle length must equal its part")
        if not chi.admissible:
            raise ValueError("inadmissible cycle %s on part %d" % (chi, p))
        key = chi.block_key
        if p == last_part:
            if last_key > key:
                raise ValueError("cycles out of canonical order inside a block")
            if p % 2 == 0 and last_key == key:
                raise ValueError("repeated pair on equal even parts")
        last_part, last_key = p, key
    return cycles


class GeneratorLabel(Frozen):
    """A partition with one admissible gap word per part, block-canonical,
    as check_label checks, which the catalog count runs on each tuple of a
    block of two or more equal parts."""

    __slots__ = ("partition", "cycles")
    _fields = ("partition", "cycles")

    def __init__(self, partition: Partition, cycles: Tuple[InvariantCycle, ...]):
        cycles = check_label(partition, tuple(cycles))
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "cycles", cycles)

    @property
    def degree(self) -> int:
        return self.partition.degree

    def __str__(self):
        return "%s %s" % (self.partition, "".join(str(c) for c in self.cycles))


@lru_cache(maxsize=None)
def _label_series(n: int) -> Dict[Tuple[int, int], int]:
    """Label counts of size n keyed by (weight, part count): the size-n
    coefficients of the product over parts v and weights d of
    (1 + X)^P(v,d) for even v, whose blocks take distinct words, and
    (1 - X)^-P(v,d) for odd v, where words repeat, with X = x^d y^v t and
    P = necklace_count.  Slot w (n + 1) + j holds x^w t^j."""

    def factors(v):
        for d in range(v + 1):
            p = necklace_count(v, d)
            if not p:
                continue
            cs = range(n // v + 1)
            coeffs = [binomial(p + c - 1, c) if v % 2 else binomial(p, c) for c in cs]
            yield v, d * (n + 1) + 1, coeffs

    coeffs = packed_series(n, (n + 1) ** 2, factors)
    return {divmod(i, n + 1): c for i, c in enumerate(coeffs) if c}


BlockAssignments = namedtuple("BlockAssignments", "combos weights by_weight")


def _block_tuples(v: int, m: int, cap: int):
    """The canonical cycle tuples of a block of m parts of value v, each
    word of weight at most cap, one at a time, ascending in cycle_block_key
    order, as combinations keep the order of a pool that is ascending in
    it.  Pairs (weight, word) repeat freely on odd v but must be distinct
    on even v."""
    pool = [chi for d in range(cap, -1, -1) for chi in enumerate_Pi(v, d)]
    if v % 2 == 0:
        return itertools.combinations(pool, m)
    return itertools.combinations_with_replacement(pool, m)


@lru_cache(maxsize=None)
def _block_assignments(v: int, m: int, cap: int) -> BlockAssignments:
    """_block_tuples(v, m, cap), kept for the listing: combos holds the
    tuples in their order and weights their block weights, index by index;
    by_weight maps each block weight to its tuples, in the same order."""
    combos = tuple(_block_tuples(v, m, cap))
    weights = tuple(sum(c.weight for c in combo) for combo in combos)
    by_weight = {}
    for combo, w in zip(combos, weights):
        by_weight.setdefault(w, []).append(combo)
    return BlockAssignments(combos, weights, by_weight)


def _partition_labels(lam: Partition, q: int) -> List[GeneratorLabel]:
    """The labels of weight q on lam, in catalog order: depth first over
    the blocks, each block's tuples in their order, keeping a tuple only
    when the blocks after it can still make up the weight.  A word on a
    part of value v weighs at most min(v, q).  A label that fails its
    check is the walk's fault."""
    blocks = [_block_assignments(v, m, min(v, q)) for v, m in lam.blocks]
    # reach[i]: the weights at most q that blocks i, i + 1, ... can sum to
    reach = [{0}]
    for block in reversed(blocks):
        reach.append(
            {w + bw for w in reach[-1] for bw in block.by_weight if w + bw <= q}
        )
    reach.reverse()
    labels = []
    if q not in reach[0]:
        return labels
    last = len(blocks) - 1

    def walk(i, cycles, w):
        if i == last:
            for combo in blocks[i].by_weight.get(q - w, ()):
                try:
                    labels.append(GeneratorLabel(lam, cycles + combo))
                except ValueError as exc:
                    label = "%s %s" % (lam, "".join(map(str, cycles + combo)))
                    raise listing_fault("the catalog", label, exc) from None
            return
        after = reach[i + 1]
        for combo, bw in zip(blocks[i].combos, blocks[i].weights):
            if q - w - bw in after:
                walk(i + 1, cycles + combo, w + bw)

    walk(0, (), 0)
    return labels


def enumerate_generators(n: int, q: int) -> Tuple[GeneratorLabel, ...]:
    """All generator labels of total weight q over partitions of n, in
    catalog order: the partitions reversed(all_partitions(n)), degree
    ascending (most parts first) then parts ascending, then the cycles'
    block keys.  Listed anew on each call; product_dimension counts the
    labels without building them."""
    if n < 1 or not 0 <= q <= n:
        raise ValueError("need n >= 1 and 0 <= q <= n")
    out = []
    for lam in reversed(all_partitions(n)):
        out.extend(_partition_labels(lam, q))
    return tuple(out)


@lru_cache(maxsize=None)
def _word_count(v: int, d: int) -> int:
    """The words of Pi(v, d) counted as admissible_words lists them: each
    walked word checked by check_gap_word and kept if cycle_admissible
    admits it, and no cycle built."""
    return sum(1 for _ in admissible_words(v, d))


@lru_cache(maxsize=None)
def _block_counts(v: int, m: int, top: int) -> Tuple[int, ...]:
    """The checked tuples of a block of m parts of value v counted by block
    weight 0..top, for top <= vm.

    A lone part is one word, so its counts are _word_count's.  On m >= 2
    parts each of _block_tuples' tuples of block weight at most top is
    checked by check_label, counted and dropped; a tuple that fails is the
    listing's fault."""
    if m == 1:
        return tuple(_word_count(v, d) for d in range(top + 1))
    lam = Partition((v,) * m)
    counts = [0] * (top + 1)
    for combo in _block_tuples(v, m, min(v, top)):
        w = sum([c.weight for c in combo])
        if w <= top:
            try:
                check_label(lam, combo)
            except ValueError as exc:
                listing = "the catalog's block (%d, %d)" % (v, m)
                raise listing_fault(listing, "".join(map(str, combo)), exc) from None
            counts[w] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def _catalog_products(n: int, top: int) -> Dict[int, List[int]]:
    """The labels over partitions of n counted by weight 0..top, summed by
    degree, and none built: a label checks block by block, so those on lam
    are the products of its blocks' checked tuples, counted by the product
    of their counts to x^top, and all have degree lam.degree.  Every
    weight q <= top reads its table off these, so each partition's blocks
    are multiplied once per (n, top)."""
    sums = {}
    for lam in all_partitions(n):
        series = [1]
        for v, m in lam.blocks:
            series = truncated_product(series, _block_counts(v, m, min(top, v * m)), top)
        counts = sums.setdefault(lam.degree, [0] * (top + 1))
        for w, c in enumerate(series):
            counts[w] += c
    return sums


def _weight_table(sums: Dict[int, List[int]], q: int) -> PoincareTable:
    """The labels of weight q by degree, from _catalog_products' sums."""
    return PoincareTable.from_dict({degree: counts[q] for degree, counts in sums.items()})


def product_dimension(n: int, q: int, method: str = "formula") -> PoincareTable:
    """Graded dimension of the weight-q invariant catalog.

    method "formula" reads a coefficient of the label series;
    method "catalog" counts the listed and checked tuples of each block
    (v, m) and multiplies them out partition by partition to x^q, building
    no label.
    """
    if method not in ("formula", "catalog"):
        raise ValueError("method must be 'formula' or 'catalog'")
    if n < 1 or not 0 <= q <= n:
        raise ValueError("need n >= 1 and 0 <= q <= n")
    if method == "catalog":
        return _weight_table(_catalog_products(n, q), q)
    return PoincareTable.from_dict(
        {n - j: c for (w, j), c in _label_series(n).items() if w == q}
    )


def product_tables(n: int, method: str = "formula") -> Tuple[PoincareTable, ...]:
    """The tables of product_dimension(n, q, method) for q = 0..n/2, in one
    call: method "formula" reads the label series once, method "catalog"
    one product per partition to x^(n/2)."""
    if method not in ("formula", "catalog"):
        raise ValueError("method must be 'formula' or 'catalog'")
    if n < 1:
        raise ValueError("need n >= 1")
    top = n // 2
    if method == "catalog":
        sums = _catalog_products(n, top)
        return tuple(_weight_table(sums, q) for q in range(top + 1))
    by_weight = [{} for _ in range(top + 1)]
    for (w, j), c in _label_series(n).items():
        if w <= top:
            by_weight[w][n - j] = c
    return tuple(PoincareTable.from_dict(graded) for graded in by_weight)
