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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from .core_combinatorics import Partition, all_partitions, binomial, packed_series
from .cycle_invariants import (
    InvariantCycle,
    cycle_admissible,
    cycle_block_key,
    enumerate_Pi,
    invariant_cycle,
    necklace_count,
)


@dataclass(frozen=True)
class MarkedPartition:
    """A partition with one weight 0 <= d_i <= part per part.

    Every part carries a mark, parts of size 1 included; inside a run of
    equal parts the marks are weakly decreasing.
    """

    partition: Partition
    marks: Tuple[int, ...]

    def __post_init__(self):
        marks = tuple(self.marks)
        object.__setattr__(self, "marks", marks)
        parts = self.partition.parts
        if len(marks) != len(parts):
            raise ValueError("one mark per part required")
        for p, d in zip(parts, marks):
            if not 0 <= d <= p:
                raise ValueError("mark out of range for its part")
        for t in range(len(parts) - 1):
            if parts[t] == parts[t + 1] and marks[t] < marks[t + 1]:
                raise ValueError("marks must be weakly decreasing on equal parts")

    @property
    def weight(self) -> int:
        return sum(self.marks)

    def block_marks(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """Per block: (part value, the marks of that block, descending)."""
        out = []
        pos = 0
        for v, m in self.partition.blocks:
            out.append((v, self.marks[pos:pos + m]))
            pos += m
        return tuple(out)

    def __str__(self):
        return "%s d=%s" % (self.partition, list(self.marks))


@dataclass(frozen=True)
class GeneratorLabel:
    """A partition with one admissible gap word per part, block-canonical."""

    partition: Partition
    cycles: Tuple[InvariantCycle, ...]

    def __post_init__(self):
        cycles = tuple(self.cycles)
        object.__setattr__(self, "cycles", cycles)
        parts = self.partition.parts
        if len(cycles) != len(parts):
            raise ValueError("one cycle per part required")
        for p, chi in zip(parts, cycles):
            if chi.length != p:
                raise ValueError("cycle length must equal its part")
            if not cycle_admissible(chi):
                raise ValueError("inadmissible cycle %s on part %d" % (chi, p))
        for t in range(len(parts) - 1):
            if parts[t] != parts[t + 1]:
                continue
            a, b = cycles[t], cycles[t + 1]
            ka, kb = cycle_block_key(a), cycle_block_key(b)
            if ka > kb:
                raise ValueError("cycles out of canonical order inside a block")
            if parts[t] % 2 == 0 and ka == kb:
                raise ValueError("repeated pair on equal even parts")

    @property
    def degree(self) -> int:
        return self.partition.degree

    @property
    def weight(self) -> int:
        return sum(c.weight for c in self.cycles)

    def marked(self) -> MarkedPartition:
        return MarkedPartition(self.partition, tuple(c.weight for c in self.cycles))

    def sort_key(self):
        return (
            self.degree,
            self.partition.parts,
            tuple(cycle_block_key(c) for c in self.cycles),
        )

    def __str__(self):
        return "%s %s" % (self.partition, "".join(str(c) for c in self.cycles))


@dataclass(frozen=True)
class PoincareTable:
    """Degree-indexed dimensions; absent degrees are zero."""

    entries: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        cleaned = tuple(sorted((d, v) for d, v in self.entries if v))
        if any(d < 0 or v < 0 for d, v in cleaned):
            raise ValueError("degrees and dimensions must be non-negative")
        if len({d for d, _ in cleaned}) != len(cleaned):
            raise ValueError("repeated degree")
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def from_dict(cls, mapping: Dict[int, int]) -> "PoincareTable":
        return cls(tuple(mapping.items()))

    @classmethod
    def from_degrees(cls, degrees) -> "PoincareTable":
        return cls.from_dict(Counter(degrees))

    def __getitem__(self, degree: int) -> int:
        for d, v in self.entries:
            if d == degree:
                return v
        return 0

    @property
    def total(self) -> int:
        return sum(v for _, v in self.entries)

    @property
    def max_degree(self) -> int:
        return max((d for d, _ in self.entries), default=0)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.entries)


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


@lru_cache(maxsize=None)
def _block_assignments(v: int, m: int):
    """Canonical cycle tuples for a block of m parts of value v, by weight.

    Pairs (weight, word) repeat freely on odd v but must be distinct on
    even v.  Returns a dict mapping block weight to the list of tuples.
    """
    pool = []
    for d in range(v, -1, -1):
        pool.extend(enumerate_Pi(v, d))
    if v % 2 == 0:
        combos = itertools.combinations(pool, m)
    else:
        combos = itertools.combinations_with_replacement(pool, m)
    by_weight = {}
    for combo in combos:
        w = sum(c.weight for c in combo)
        by_weight.setdefault(w, []).append(combo)
    return by_weight


@lru_cache(maxsize=None)
def enumerate_generators(n: int, q: int) -> Tuple[GeneratorLabel, ...]:
    """All generator labels of total weight q over partitions of n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= q <= n:
        raise ValueError("need 0 <= q <= n")
    out = []
    for lam in all_partitions(n):
        blocks = lam.blocks
        partial = [((), 0)]
        for v, m in blocks:
            by_weight = _block_assignments(v, m)
            grown = []
            for cycles, w in partial:
                for bw, combos in by_weight.items():
                    if w + bw > q:
                        continue
                    for combo in combos:
                        grown.append((cycles + combo, w + bw))
            partial = grown
        for cycles, w in partial:
            if w == q:
                out.append(GeneratorLabel(lam, cycles))
    return tuple(sorted(out, key=GeneratorLabel.sort_key))


def label_from_word(word: Tuple[int, ...], lam: Partition):
    """The generator label a 0/1 coset word induces, or None when rejected.

    Each part reads its gap word off the word restricted to its block;
    the per-part words are canonicalized blockwise and must pass the same
    admissibility and repetition rules the catalog enforces.
    """
    cycles = []
    pos = 0
    for _, m in lam.blocks:
        block = [invariant_cycle(word, lam, pos + t + 1) for t in range(m)]
        block.sort(key=cycle_block_key)
        cycles.extend(block)
        pos += m
    try:
        return GeneratorLabel(lam, tuple(cycles))
    except ValueError:
        return None


def product_dimension(n: int, q: int, method: str = "formula") -> PoincareTable:
    """Graded dimension of the weight-q invariant catalog.

    method "formula" reads a coefficient of the label series;
    method "catalog" counts the explicitly enumerated labels.
    """
    if method == "catalog":
        return PoincareTable.from_degrees(
            g.degree for g in enumerate_generators(n, q)
        )
    if method != "formula":
        raise ValueError("method must be 'formula' or 'catalog'")
    if n < 1 or not 0 <= q <= n:
        raise ValueError("need n >= 1 and 0 <= q <= n")
    return PoincareTable.from_dict(
        {n - j: c for (w, j), c in _label_series(n).items() if w == q}
    )
