"""Catalog machinery for the order-2 extension of the half-block product.

For n = 2q the reversal permutation swaps the two value blocks; on generator
labels it dualizes every gap word and re-sorts.  This module lists the
fixed labels block by block, each block a union of whole duality orbits,
and attaches the reordering sign, which depends only on each block's count
of two-word orbits.  The extension invariants are the swap-invariant part
of the product invariants, so their dimension in each degree is half the
sum of the product count and the swap's trace, the fixed labels summed
with their signs.  The trace comes from that listing or, independently,
as the coefficients of a generating series built from closed-form
necklace counts.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache, partial
from typing import Tuple

from .core_combinatorics import (
    Partition,
    PoincareTable,
    all_partitions,
    binomial,
    packed_series,
)
from .cycle_invariants import (
    cycle_block_key,
    dual_cycle,
    enumerate_Pi,
    enumerate_selfdual,
    necklace_count,
    selfdual_count_closed_form,
)
from .errors import InternalConsistencyError
from .product_catalog import GeneratorLabel, product_dimension


@lru_cache(maxsize=None)
def _fixed_blocks(v: int, m: int):
    """The cycle tuples of a block of m parts of value v that the swap
    fixes, each with its pair count k, ascending in cycle_block_key order.

    Such a tuple is a union of whole duality orbits: a word of weight
    h > v/2 with its dual, and on even v two distinct dual words of weight
    v/2, or one self-dual word there, as enumerate_selfdual lists them.
    Orbits repeat on odd v and are distinct on even v, as words are; k
    counts the two-word orbits.
    """
    selfdual = [(chi,) for chi in enumerate_selfdual(v // 2)] if v % 2 == 0 else []
    pairs = []
    if m > 1:  # a lone part builds no pairs
        for h in range(v, (v - 1) // 2, -1):
            for chi in enumerate_Pi(v, h):
                mate = dual_cycle(chi)
                if chi.block_key < mate.block_key:
                    pairs.append((chi, mate))
    pick = itertools.combinations_with_replacement if v % 2 else itertools.combinations
    out = []
    for k in range(m // 2 + 1):
        for chosen in pick(pairs, k):
            for alone in itertools.combinations(selfdual, m - 2 * k):
                cycles = sorted(sum(chosen + alone, ()), key=cycle_block_key)
                out.append((tuple(cycles), k))
    out.sort(key=lambda pair: [chi.block_key for chi in pair[0]])
    return tuple(out)


@lru_cache(maxsize=None)
def _ep_members(n: int):
    """All (label, pair counts) of swap-fixed generators, one pair count per
    block, in catalog order: the partitions reversed(all_partitions(n)),
    each taking the product of its blocks' fixed tuples."""
    if n < 2 or n % 2:
        raise ValueError("need an even n >= 2")
    out = []
    for lam in reversed(all_partitions(n)):
        per_block = [_fixed_blocks(v, m) for v, m in lam.blocks]
        for combo in itertools.product(*per_block):
            cycles = tuple(chi for block, _ in combo for chi in block)
            pair_counts = tuple(k for _, k in combo)
            out.append((GeneratorLabel(lam, cycles), pair_counts))
    return tuple(out)


def enumerate_EP(n: int) -> Tuple[GeneratorLabel, ...]:
    """All swap-fixed generator labels of the half-weight catalog."""
    return tuple(label for label, _ in _ep_members(n))


def epsilon_sign(lam: Partition, pair_counts: Tuple[int, ...]) -> int:
    """Sign the swap acts by on a fixed label on lam with these pair counts,
    one per block."""
    exponent = 0
    for (v, m), k in zip(lam.blocks, pair_counts):
        exponent += m * (v - 1) * (v - 2) // 2 + (v - 1) ** 2 * k * (2 * k - 1)
    return -1 if exponent % 2 else 1


def enumerate_KP(n: int) -> Tuple[GeneratorLabel, ...]:
    """The swap-fixed labels on which the swap acts by -1."""
    return tuple(
        label
        for label, pair_counts in _ep_members(n)
        if epsilon_sign(label.partition, pair_counts) == -1
    )


def _fixed_factors(n: int, signed: bool, v: int):
    """(size, slot, coefficients) of each factor of part value v in the EP
    series or the swap's trace; slot j holds t^j.

    With Y = y^v t, the dual pairs (weight h > v/2 with v - h, and on even v
    the O(v) orbit pairs at v/2) give (1 + eps Y^2)^pairs on even v, whose
    blocks take distinct words, and (1 - Y^2)^-pairs on odd v; the S(v)
    self-dual words of even v give (1 + s_v Y)^S(v).  EP takes
    eps = s_v = 1, the trace eps = -1 and s_v = (-1)^((v-1)(v-2)/2).
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
def _fixed_series(n: int, signed: bool) -> Counter:
    """Swap-fixed labels by degree: the EP count, or with signed the swap's
    trace, the fixed labels summed with their signs."""
    if n < 2 or n % 2:
        raise ValueError("need an even n >= 2")
    slots = packed_series(n, n + 1, partial(_fixed_factors, n, signed))
    # slot j counts the labels with j parts, in degree n - j
    return Counter({n - j: count for j, count in enumerate(slots) if count})


def count_EP_closed_form(n: int) -> int:
    return sum(_fixed_series(n, False).values())


def count_KP_closed_form(n: int) -> int:
    """The fixed labels of sign -1: (EP - trace) / 2, degree by degree."""
    ep, trace = _fixed_series(n, False), _fixed_series(n, True)
    kp = 0
    for degree in ep.keys() | trace.keys():
        half, odd = divmod(ep[degree] - trace[degree], 2)
        if odd:
            raise InternalConsistencyError(
                "EP minus the signed count is odd in degree %d" % degree
            )
        kp += half
    return kp


def ext_dimension(n: int, method: str = "formula"):
    """Total and graded dimension of the extension invariants.

    Half the sum of the product-invariant dimension and the swap's trace,
    degree by degree.  Both can come from closed-form counting (method
    "formula") or from explicit label enumeration (method "catalog").
    """
    if n < 2 or n % 2:
        raise ValueError("need an even n >= 2")
    if method not in ("formula", "catalog"):
        raise ValueError("method must be 'formula' or 'catalog'")
    prod = product_dimension(n, n // 2, method=method).as_dict()
    if method == "formula":
        trace = _fixed_series(n, True)
    else:
        trace = Counter()
        for label, pair_counts in _ep_members(n):
            trace[label.degree] += epsilon_sign(label.partition, pair_counts)
    graded = {}
    for degree in prod.keys() | trace.keys():
        p, t = prod.get(degree, 0), trace[degree]
        if (p + t) % 2:
            raise InternalConsistencyError(
                "odd orbit count %d + %d in degree %d" % (p, t, degree)
            )
        if p + t < 0:
            raise InternalConsistencyError(
                "negative dimension in degree %d" % degree
            )
        graded[degree] = (p + t) // 2
    table = PoincareTable.from_dict(graded)
    return table.total, table
