"""Generator catalog for the block-product symmetric group action.

A generator is labeled by a partition of n together with one admissible gap
word per part, total weight q, arranged canonically inside each run of equal
parts: weights weakly decreasing, ties broken by ascending word, and for
even part values no repeated (weight, word) pair.  Dimensions are computed
two independent ways, and the two must agree: by listing the labels, and by
counting them as the coefficients of a generating series whose factors take
their exponents from closed-form necklace counts, so nothing is listed.
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
)
from .cycle_invariants import InvariantCycle, enumerate_Pi, necklace_count
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
    as check_label checks, which the catalog count runs on plain tuples."""

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


@lru_cache(maxsize=None)
def _block_assignments(v: int, m: int, cap: int, floor: int) -> BlockAssignments:
    """Canonical cycle tuples for a block of m parts of value v whose words
    each have weight floor..cap; words outside that range are never listed.

    Pairs (weight, word) repeat freely on odd v but must be distinct on
    even v.  combos holds the tuples ascending in cycle_block_key order,
    as combinations keep the order of a pool that is ascending in it, and
    weights their block weights, index by index; by_weight maps each block
    weight to its tuples, in the same order.
    """
    pool = []
    for d in range(cap, floor - 1, -1):
        pool.extend(enumerate_Pi(v, d))
    if v % 2 == 0:
        tuples = itertools.combinations(pool, m)
    else:
        tuples = itertools.combinations_with_replacement(pool, m)
    combos = []
    weights = []
    by_weight = {}
    for combo in tuples:
        w = sum(c.weight for c in combo)
        combos.append(combo)
        weights.append(w)
        by_weight.setdefault(w, []).append(combo)
    return BlockAssignments(tuple(combos), tuple(weights), by_weight)


def _partition_labels(lam: Partition, q: int, make) -> List:
    """make(lam, cycles), make being GeneratorLabel or check_label, for
    the cycles of each label of weight q on lam, in catalog order: depth
    first over the blocks, each block's tuples in their order, keeping a
    tuple only when the blocks after it can still make up the weight.  A
    tuple that fails its check is the walk's fault.

    A word on a part of value v weighs at most min(v, q), so one on a part
    of block i weighs at least q less what the other parts can carry, and
    each block pools only words of weight in that range."""
    carried = sum(m * min(v, q) for v, m in lam.blocks)
    blocks = [
        _block_assignments(v, m, min(v, q), max(0, q - carried + min(v, q)))
        for v, m in lam.blocks
    ]
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
                    labels.append(make(lam, cycles + combo))
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
        out.extend(_partition_labels(lam, q, GeneratorLabel))
    return tuple(out)


@lru_cache(maxsize=None)
def _catalog_dimension(n: int, q: int) -> PoincareTable:
    """The labels of weight q over partitions of n counted by degree, each
    partition's cycle tuples checked by check_label, counted and dropped,
    and no label built: every label on lam has degree lam.degree."""
    counts = {}
    for lam in all_partitions(n):
        count = len(_partition_labels(lam, q, check_label))
        counts[lam.degree] = counts.get(lam.degree, 0) + count
    return PoincareTable.from_dict(counts)


def product_dimension(n: int, q: int, method: str = "formula") -> PoincareTable:
    """Graded dimension of the weight-q invariant catalog.

    method "formula" reads a coefficient of the label series;
    method "catalog" counts the explicitly enumerated labels, partition
    by partition, building none.
    """
    if method not in ("formula", "catalog"):
        raise ValueError("method must be 'formula' or 'catalog'")
    if n < 1 or not 0 <= q <= n:
        raise ValueError("need n >= 1 and 0 <= q <= n")
    if method == "catalog":
        return _catalog_dimension(n, q)
    return PoincareTable.from_dict(
        {n - j: c for (w, j), c in _label_series(n).items() if w == q}
    )
