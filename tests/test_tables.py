"""Each route tabulates every group at n in one call, and reads the same
tables as its per-group functions off products built once per n."""

from collections import Counter

import pytest

from braidinv import character_oracle, extension_catalog, product_catalog
from braidinv.character_oracle import GroupSpec
from braidinv.cli import METHODS, every_table, group_table, split_tables
from braidinv.core_combinatorics import all_partitions, truncated_product


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("method", METHODS)
def test_tables_are_the_per_group_tables(method, n):
    groups = GroupSpec.every(n)
    expected = tuple(group_table(group, method) for group in groups)
    assert every_table(n, method) == expected
    assert split_tables(n, method) == expected[: n // 2 + 1]


def test_every_route_tabulates_the_same_groups_at_n20():
    formula, catalog, oracle = (every_table(20, method) for method in METHODS)
    assert len(formula) == len(GroupSpec.every(20)) == 12
    assert formula == catalog == oracle


def test_one_oracle_call_multiplies_each_partitions_blocks_once(monkeypatch):
    tops = []

    def counted(a, b, top):
        tops.append(top)
        return truncated_product(a, b, top)

    monkeypatch.setattr(character_oracle, "truncated_product", counted)
    character_oracle._partition_products.cache_clear()
    try:
        tables = character_oracle.tables(16)
    finally:
        character_oracle._partition_products.cache_clear()
    assert len(tables) == 10
    # one step per block for the P and one for the T, as 16 is even, all to
    # x^8, for the nine splits and the extension together
    blocks = sum(len(lam.blocks) for lam in all_partitions(16))
    assert tops == [8] * (2 * blocks)


def test_one_catalog_call_lists_each_block_of_many_parts_once(monkeypatch):
    real = product_catalog._block_tuples
    listed = Counter()

    def counted(v, m, cap):
        listed[v, m] += 1
        return real(v, m, cap)

    monkeypatch.setattr(product_catalog, "_block_tuples", counted)
    caches = (product_catalog._block_counts, product_catalog._catalog_products)
    for cache in caches:
        cache.cache_clear()
    try:
        tables = extension_catalog.tables(16, "catalog")
    finally:
        for cache in caches:
            cache.cache_clear()
    assert len(tables) == 10
    blocks = {b for lam in all_partitions(16) for b in lam.blocks if b[1] > 1}
    assert listed == Counter(dict.fromkeys(blocks, 1))
