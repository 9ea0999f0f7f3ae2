import hashlib
import itertools
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Tuple

import pytest

from braidinv import product_catalog
from braidinv.character_oracle import GroupSpec
from braidinv.cli import group_table
from braidinv.core_combinatorics import Partition, PoincareTable, all_partitions
from braidinv.cycle_invariants import InvariantCycle, cycle_block_key, enumerate_Pi
from braidinv.product_catalog import (
    GeneratorLabel,
    _block_assignments,
    _label_series,
    enumerate_generators,
    product_dimension,
)
from dict_series import untrimmed_label_series
from test_cycle_invariants import invariant_cycle

# pinned against the brute-force character path (see test_character_oracle)
PRODUCT_TABLES = {
    (2, 0): {0: 1, 1: 1},
    (2, 1): {0: 1, 1: 1},
    (4, 2): {0: 1, 1: 3, 2: 3, 3: 1},
    (6, 2): {0: 1, 1: 3, 2: 4, 3: 5, 4: 6, 5: 3},
    (6, 3): {0: 1, 1: 3, 2: 5, 3: 8, 4: 8, 5: 3},
    (8, 3): {0: 1, 1: 3, 2: 5, 3: 9, 4: 16, 5: 22, 6: 19, 7: 7},
}


def test_generator_label_validation():
    lam = Partition((2, 2))
    one = InvariantCycle(2, (1,))
    full = InvariantCycle(2, (0, 0))
    GeneratorLabel(lam, (full, one))
    with pytest.raises(ValueError):
        GeneratorLabel(lam, (one, full))  # weight must not increase in a block
    with pytest.raises(ValueError):
        GeneratorLabel(lam, (one, one))  # repeat on an even part
    with pytest.raises(ValueError):
        GeneratorLabel(Partition((3,)), (InvariantCycle.empty(3),))
    # repeats on odd parts are fine
    chi = InvariantCycle(3, (2,))
    GeneratorLabel(Partition((3, 3)), (chi, chi))


def test_generator_label_messages():
    lam = Partition((3, 2, 2))
    chi = InvariantCycle(3, (2,))
    one = InvariantCycle(2, (1,))
    full = InvariantCycle(2, (0, 0))
    # block order is checked inside a block only: (3) may precede a heavier (2)
    GeneratorLabel(lam, (chi, full, one))
    cases = [
        ((chi, full), "one cycle per part"),
        ((one, full, one), "must equal its part"),
        ((InvariantCycle.empty(3), full, one), "inadmissible cycle"),
        ((chi, one, full), "out of canonical order"),
        ((chi, one, one), "repeated pair"),
    ]
    for cycles, message in cases:
        with pytest.raises(ValueError, match=message):
            GeneratorLabel(lam, cycles)


def test_generator_label_degree_weight():
    lam = Partition((4, 2))
    label = GeneratorLabel(lam, (InvariantCycle(4, (0, 2)), InvariantCycle(2, (1,))))
    assert label.degree == 4
    assert sum(c.weight for c in label.cycles) == 3
    assert str(label) == "(4,2) (0,2)(1)"


def test_poincare_table():
    t = PoincareTable.from_dict({0: 1, 2: 5, 7: 0})
    assert t[0] == 1 and t[2] == 5 and t[1] == 0 and t[7] == 0
    assert t.total == 6
    assert t.as_dict() == {0: 1, 2: 5}


def test_enumerate_generators_weights_sum_to_q():
    for n, q in ((4, 2), (6, 3), (7, 2)):
        labels = enumerate_generators(n, q)
        assert len(set(labels)) == len(labels)
        for g in labels:
            assert sum(c.weight for c in g.cycles) == q
            blocks = g.partition.blocks
            pos = 0
            for _, m in blocks:
                keys = [cycle_block_key(c) for c in g.cycles[pos:pos + m]]
                assert keys == sorted(keys)
                pos += m


@pytest.mark.parametrize("n,q", sorted(PRODUCT_TABLES))
def test_product_dimension_pinned(n, q):
    assert product_dimension(n, q).as_dict() == PRODUCT_TABLES[(n, q)]


@pytest.mark.parametrize("n", range(1, 13))
def test_product_dimension_routes_agree(n):
    for q in range(n + 1):
        formula = product_dimension(n, q, method="formula")
        catalog = product_dimension(n, q, method="catalog")
        assert formula.as_dict() == catalog.as_dict()


def test_product_dimension_rejects_bad_arguments():
    for n, q in ((0, 0), (4, -1), (4, 5)):
        with pytest.raises(ValueError):
            product_dimension(n, q)
    with pytest.raises(ValueError):
        product_dimension(4, 1, method="guess")
    for n, q in ((0, 0), (4, -1), (4, 5)):
        with pytest.raises(ValueError):
            product_dimension(n, q, method="catalog")


@pytest.mark.parametrize("n", range(1, 17))
def test_catalog_count_is_the_listing_by_degree(n):
    # the count multiplies its blocks' checked tuples and builds no label;
    # the listing builds every label, in order, and lists it anew each call
    for q in range(n + 1) if n <= 10 else range(n // 2 + 1):
        listed = enumerate_generators(n, q)
        degrees = Counter(g.degree for g in listed)
        assert product_dimension(n, q, method="catalog") == PoincareTable.from_dict(degrees)
        assert listed == enumerate_generators(n, q)


def test_catalog_is_the_formula_for_every_group_at_n20():
    for group in GroupSpec.every(20):
        assert group_table(group, "catalog") == group_table(group, "formula"), group


CATALOG_MEMORY_PROBE = """
import tracemalloc
from braidinv.extension_catalog import ext_dimension
from braidinv.product_catalog import product_dimension
n = 16
tracemalloc.start()
for q in range(n // 2 + 1):
    product_dimension(n, q, method="catalog")
ext_dimension(n, method="catalog")
print(tracemalloc.get_traced_memory()[1])
"""


def test_catalog_memory_at_n16():
    # a fresh interpreter, so that no other test's caches count; only the
    # block counts and the pools of blocks of m >= 2 parts stay, and no
    # label or one-part cycle is built
    src = str(Path(product_catalog.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CATALOG_MEMORY_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2**20


@pytest.mark.parametrize("n", range(1, 25))
def test_label_series_keeps_every_size_n_term(n):
    # the packed engine, trimmed, against the dict engine with nothing dropped
    full = untrimmed_label_series(n)
    assert _label_series(n) == {(w, j): a for (s, w, j), a in full.items() if s == n}


@pytest.mark.parametrize("n", range(2, 9))
def test_product_dimension_symmetry_and_degree_zero(n):
    for q in range(n + 1):
        table = product_dimension(n, q)
        assert table[0] == 1
        assert table.as_dict() == product_dimension(n, n - q).as_dict()


@pytest.mark.parametrize("n", range(2, 9))
def test_classical_anchor_full_invariants(n):
    assert product_dimension(n, 0).as_dict() == {0: 1, 1: 1}


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


def test_label_from_delta_accepts_and_rejects():
    lam = Partition((4,))
    # 1010 pattern on a 4-cycle has rotation multiplicity 2 at 4 = 0 mod 4
    assert label_from_word((1, 0, 1, 0), lam) is None
    built = label_from_word((1, 1, 0, 0), lam)
    assert built is not None
    assert built.cycles[0] == InvariantCycle(4, (0, 2))


@pytest.mark.parametrize("n", range(2, 8))
def test_label_from_delta_reaches_exactly_the_catalog(n):
    # the labels reachable from marking words are exactly the enumerated ones
    for q in range(n // 2 + 1):
        labels = set(enumerate_generators(n, q))
        reachable = set()
        for lam in all_partitions(n):
            for word in set(itertools.permutations([1] * q + [0] * (n - q))):
                got = label_from_word(word, lam)
                if got is not None:
                    reachable.add(got)
        assert reachable == labels


@lru_cache(maxsize=None)
def _uncapped_assignments(v, m):
    """A block's tuples over the pool of every weight, in pool order, with
    their block weights."""
    pool = [chi for d in range(v, -1, -1) for chi in enumerate_Pi(v, d)]
    if v % 2 == 0:
        combos = itertools.combinations(pool, m)
    else:
        combos = itertools.combinations_with_replacement(pool, m)
    return tuple((combo, sum(c.weight for c in combo)) for combo in combos)


def _sort_key(label):
    """Catalog order: degree, then parts, then the cycles' block keys."""
    return (
        label.degree,
        label.partition.parts,
        tuple([c.block_key for c in label.cycles]),
    )


def _assembled_then_sorted(n, q):
    """The labels by the first assembly: each partition's blocks joined
    weight group by weight group over the uncapped pools, every label of
    weight q kept, and the whole list sorted by _sort_key."""
    out = []
    for lam in all_partitions(n):
        partial = [((), 0)]
        for v, m in lam.blocks:
            by_weight = {}
            for combo, w in _uncapped_assignments(v, m):
                by_weight.setdefault(w, []).append(combo)
            partial = [
                (cycles + combo, w + bw)
                for cycles, w in partial
                for bw, combos in by_weight.items()
                if w + bw <= q
                for combo in combos
            ]
        out.extend(GeneratorLabel(lam, cycles) for cycles, w in partial if w == q)
    return tuple(sorted(out, key=_sort_key))


@pytest.mark.parametrize("n", range(1, 15))
def test_enumerate_generators_matches_sorted_assembly(n):
    # built in catalog order, the listing needs no sort to match
    for q in range(n + 1):
        assert enumerate_generators(n, q) == _assembled_then_sorted(n, q)


# every label of enumerate_generators(n, q), n <= 14 and 0 <= q <= n, in
# order, one "q label" line each: how many, and their SHA-256
GENERATORS_TO_14 = (
    49148,
    "a9f5269d3f3aa6866000358a21471d77ade779a204ebccff73d40a6bf8778ac6",
)


def test_enumerate_generators_listing_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 15):
        for q in range(n + 1):
            for label in enumerate_generators(n, q):
                digest.update(b"%d %s\n" % (q, str(label).encode()))
                count += 1
    assert (count, digest.hexdigest()) == GENERATORS_TO_14


@pytest.mark.parametrize("v", range(1, 10))
def test_capped_pools_are_the_uncapped_pools_below_the_cap(v):
    for m in range(1, 4):
        full = _uncapped_assignments(v, m)
        for cap in range(v + 1):
            capped = _block_assignments(v, m, cap)
            kept = tuple(
                (combo, w) for combo, w in full if all(c.weight <= cap for c in combo)
            )
            assert tuple(zip(capped.combos, capped.weights)) == kept
            by_weight = {}
            for combo, w in kept:
                by_weight.setdefault(w, []).append(combo)
            assert capped.by_weight == by_weight


def test_catalog_pools_no_word_heavier_than_the_weight(monkeypatch):
    # n = 24 at q = 3 lists its 3,586 labels from words of weight at most 3,
    # and counts them from such words too
    requested = []

    def recording(v, d):
        requested.append((v, d))
        return enumerate_Pi(v, d)

    monkeypatch.setattr(product_catalog, "enumerate_Pi", recording)
    _block_assignments.cache_clear()
    labels = enumerate_generators(24, 3)
    assert len(labels) == product_dimension(24, 3).total == 3586
    assert requested and max(d for _, d in requested) == 3
    requested.clear()
    caches = (product_catalog._block_counts, product_catalog._catalog_products)
    for cache in caches:
        cache.cache_clear()
    try:
        assert product_dimension(24, 3, method="catalog").total == 3586
    finally:
        for cache in caches:
            cache.cache_clear()
    assert requested and max(d for _, d in requested) == 3
