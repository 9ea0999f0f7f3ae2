import sys
from collections import Counter
from functools import partial

import pytest

from braidinv import cycle_invariants, extension_catalog, product_catalog
from braidinv.core_combinatorics import Partition, PoincareTable, packed_series
from braidinv.cycle_invariants import InvariantCycle, cycle_block_key, dual_cycle
from braidinv.errors import InternalConsistencyError
from braidinv.extension_catalog import (
    _ep_members,
    _fixed_blocks,
    _fixed_factors,
    count_EP_closed_form,
    count_KP_closed_form,
    enumerate_EP,
    enumerate_KP,
    epsilon_sign,
    ext_dimension,
)
from braidinv.product_catalog import GeneratorLabel, enumerate_generators, product_dimension
from dict_series import fixed_series

# pinned: both enumeration and closed form produce these
EP_KP_COUNTS = {2: (2, 0), 4: (4, 2), 6: (8, 4), 8: (14, 7), 10: (28, 14), 12: (56, 28)}

# pinned against the brute-force character path
EXT_TABLES = {
    2: {0: 1, 1: 1},
    4: {0: 1, 1: 2, 2: 1},
    6: {0: 1, 1: 2, 2: 2, 3: 3, 4: 4, 5: 2},
    8: {0: 1, 1: 2, 2: 2, 3: 4, 4: 10, 5: 16, 6: 12, 7: 3},
    10: {0: 1, 1: 2, 2: 2, 3: 4, 4: 12, 5: 26, 6: 39, 7: 45, 8: 37, 9: 14},
}


def sigma_dual_label(label: GeneratorLabel) -> GeneratorLabel:
    """Dualize every cycle and restore the canonical block order."""
    cycles = []
    pos = 0
    for _, m in label.partition.blocks:
        block = [dual_cycle(c) for c in label.cycles[pos:pos + m]]
        block.sort(key=cycle_block_key)
        cycles.extend(block)
        pos += m
    try:
        return GeneratorLabel(label.partition, tuple(cycles))
    except ValueError as exc:
        raise InternalConsistencyError(
            "dualized label %s is not canonical: %s" % (label, exc)
        ) from exc


def pairing_of_label(label: GeneratorLabel) -> tuple:
    """Read each block's pair count off a swap-fixed label: the words the
    swap does not fix come in dual pairs, so k = (m - self-dual words) / 2."""
    ks = []
    pos = 0
    for _, m in label.partition.blocks:
        block = label.cycles[pos:pos + m]
        moved = sum(1 for chi in block if dual_cycle(chi) != chi)
        if moved % 2:
            raise ValueError("label is not swap-fixed")
        ks.append(moved // 2)
        pos += m
    return tuple(ks)


def test_paired_marked_partition_allows_large_k_on_ones():
    # four 1-parts, two dual (1,0)-pairs: k = 2 exceeds half of the part value
    full, empty = InvariantCycle(1, (0,)), InvariantCycle.empty(1)
    assert _fixed_blocks(1, 4) == (((full, full, empty, empty), 2),)


def test_sigma_dual_label_examples():
    lam = Partition((3, 3))
    label = GeneratorLabel(lam, (InvariantCycle(3, (0, 1)), InvariantCycle(3, (2,))))
    assert sigma_dual_label(label) == label
    lam2 = Partition((4, 2))
    swapped = GeneratorLabel(
        lam2, (InvariantCycle(4, (0, 2)), InvariantCycle(2, (1,)))
    )
    assert sigma_dual_label(swapped) == swapped
    moved = GeneratorLabel(Partition((3,)), (InvariantCycle(3, (2,)),))
    image = sigma_dual_label(moved)
    assert image.cycles[0].weight == 2
    assert sigma_dual_label(image) == moved


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_sigma_dual_label_involution_on_catalog(n):
    labels = enumerate_generators(n, n // 2)
    fixed = 0
    for g in labels:
        image = sigma_dual_label(g)
        assert sigma_dual_label(image) == g
        fixed += image == g
    assert (len(labels) + fixed) % 2 == 0


@pytest.mark.parametrize("n", sorted(EP_KP_COUNTS))
def test_counts_closed_form_vs_enumeration(n):
    ep, kp = EP_KP_COUNTS[n]
    assert len(enumerate_EP(n)) == ep
    assert len(enumerate_KP(n)) == kp
    assert count_EP_closed_form(n) == ep
    assert count_KP_closed_form(n) == kp


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12, 14))
def test_EP_is_the_fixed_point_set(n):
    # the same labels in the same order: the listing keeps sort_key order
    fixed = [g for g in enumerate_generators(n, n // 2) if sigma_dual_label(g) == g]
    assert list(enumerate_EP(n)) == fixed
    assert set(enumerate_KP(n)) <= set(fixed)


def test_ep_members_n6_explicit():
    by_partition = {label.partition.parts: label for label in enumerate_EP(6)}
    assert set(by_partition) == {
        (6,), (4, 2), (4, 1, 1), (3, 3), (2, 2, 2), (2, 2, 1, 1),
        (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    }
    assert {label.partition.parts for label in enumerate_KP(6)} == {
        (4, 2), (4, 1, 1), (2, 2, 2), (2, 2, 1, 1),
    }
    assert str(by_partition[(6,)]) == "(6) (0,0,3)"


def test_epsilon_sign_examples():
    signs = {
        label.partition.parts: epsilon_sign(label.partition, pair_counts)
        for label, pair_counts in _ep_members(6)
    }
    assert signs[(3, 3)] == 1
    assert signs[(4, 1, 1)] == -1
    assert signs[(4, 2)] == -1
    assert signs[(1, 1, 1, 1, 1, 1)] == 1


def kernel_parity_conditions(lam: Partition, pair_counts: tuple) -> bool:
    """Explicit residue test for a fixed label landing in the kernel.

    A block contributes when its (value, multiplicity, pair count) residues
    mod 4 match one of four patterns; the label is in the kernel when an
    odd number of blocks contribute.  A cross-check against the sign
    computation, which is authoritative.
    """
    hits = 0
    for (value, mult), k in zip(lam.blocks, pair_counts):
        v, m, k = value % 4, mult % 4, k % 2
        if k == 0:
            if v in (0, 3) and m in (1, 3):
                hits += 1
        else:
            if v == 2:
                hits += 1
            elif v == 0 and m in (0, 2):
                hits += 1
            elif v == 3 and m in (1, 3):
                hits += 1
    return hits % 2 == 1


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_kernel_parity_conditions_match_sign(n):
    for label, pair_counts in _ep_members(n):
        kernel = epsilon_sign(label.partition, pair_counts) == -1
        assert kernel == kernel_parity_conditions(label.partition, pair_counts)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_pairing_recovery_and_sign_constancy(n):
    for label, pair_counts in _ep_members(n):
        assert pairing_of_label(label) == pair_counts


@pytest.mark.parametrize("n", sorted(EXT_TABLES))
def test_ext_dimension_pinned(n):
    total, table = ext_dimension(n)
    assert table.as_dict() == EXT_TABLES[n]
    assert total == sum(EXT_TABLES[n].values())


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
def test_ext_dimension_routes_agree(n):
    _, formula = ext_dimension(n, method="formula")
    _, catalog = ext_dimension(n, method="catalog")
    assert formula.as_dict() == catalog.as_dict()


def test_formula_route_lists_nothing(monkeypatch):
    # every binding of the listing functions raises; the counting route
    # must still give its pinned values from cold caches
    listings = (
        cycle_invariants.enumerate_Pi,
        cycle_invariants.enumerate_selfdual,
        extension_catalog._ep_members,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the formula route called a listing")

    for name, module in list(sys.modules.items()):
        if name == "braidinv" or name.startswith("braidinv."):
            for binding, value in list(vars(module).items()):
                if any(value is fn for fn in listings):
                    monkeypatch.setattr(module, binding, refuse)
    product_catalog._label_series.cache_clear()
    extension_catalog._fixed_series.cache_clear()
    assert product_dimension(8, 3).as_dict() == {
        0: 1, 1: 3, 2: 5, 3: 9, 4: 16, 5: 22, 6: 19, 7: 7
    }
    total, table = ext_dimension(10)
    assert (total, table.as_dict()) == (182, EXT_TABLES[10])
    assert count_KP_closed_form(10) == EP_KP_COUNTS[10][1]


def test_ext_dimension_rejects_odd_or_bad_method():
    with pytest.raises(ValueError):
        ext_dimension(3)
    with pytest.raises(ValueError):
        ext_dimension(4, method="guess")


def test_equal_weight_orbit_pair_appears_at_n12():
    # two dual 3-weight words on a pair of 6-cycles, joined as one dual pair
    members = [label for label in enumerate_EP(12) if label.partition.parts == (6, 6)]
    strings = {str(label) for label in members}
    assert "(6,6) (0,1,2)(0,2,1)" in strings


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("n", range(2, 25, 2))
def test_fixed_series_matches_dict_engine(n, signed):
    reference = fixed_series(n, signed)
    packed = packed_series(n, n + 1, partial(_fixed_factors, n, signed))
    assert packed == [reference.get((n, j), 0) for j in range(n + 1)]
    if signed and n >= 4:
        # negative coefficients exercise the balanced decode
        assert min(packed) < 0


def shift_trace(monkeypatch, shift):
    """Add shift to the formula route's trace in degree n - 1 (one part)."""
    real = extension_catalog._fixed_series

    def shifted(n, signed):
        series = Counter(real(n, signed))
        if signed:
            series[n - 1] += shift
        return series

    monkeypatch.setattr(extension_catalog, "_fixed_series", shifted)


def test_kp_closed_form_checks_ep_minus_trace_is_even(monkeypatch):
    shift_trace(monkeypatch, 1)
    with pytest.raises(InternalConsistencyError, match="EP minus the signed count is odd in degree 5"):
        count_KP_closed_form(6)


@pytest.mark.parametrize("method", ["formula", "catalog"])
def test_both_routes_check_the_orbit_count_against_the_product_table(monkeypatch, method):
    real = extension_catalog.product_dimension

    def one_more(n, q, method):
        dims = real(n, q, method=method).as_dict()
        dims[0] += 1
        return PoincareTable.from_dict(dims)

    monkeypatch.setattr(extension_catalog, "product_dimension", one_more)
    with pytest.raises(InternalConsistencyError, match="odd orbit count .* in degree 0"):
        ext_dimension(6, method)


def test_ext_dimension_checks_product_plus_trace_is_not_negative(monkeypatch):
    shift_trace(monkeypatch, -1000)
    with pytest.raises(InternalConsistencyError, match="negative dimension in degree 5"):
        ext_dimension(6)


def test_fixed_factors_check_half_weight_orbits_balance(monkeypatch):
    real = extension_catalog.selfdual_count_closed_form
    monkeypatch.setattr(
        extension_catalog, "selfdual_count_closed_form", lambda d: real(d) + 1
    )
    extension_catalog._fixed_series.cache_clear()
    with pytest.raises(InternalConsistencyError, match="half-weight duality orbits of 2"):
        count_EP_closed_form(4)


def test_formula_route_builds_only_the_trace(monkeypatch):
    signs, series = [], []
    real_factors, real_series = extension_catalog._fixed_factors, extension_catalog.packed_series

    def factors(n, signed, v):
        signs.append(signed)
        return real_factors(n, signed, v)

    def packed(*args):
        series.append(args[0])
        return real_series(*args)

    monkeypatch.setattr(extension_catalog, "_fixed_factors", factors)
    monkeypatch.setattr(extension_catalog, "packed_series", packed)
    extension_catalog._fixed_series.cache_clear()
    _, table = ext_dimension(10)
    assert table.as_dict() == EXT_TABLES[10]
    assert series == [10] and set(signs) == {True}


def test_catalog_route_walks_the_fixed_labels_once(monkeypatch):
    def refuse(n):
        raise AssertionError("the catalog route listed EP or KP")

    walks = []
    real = extension_catalog._ep_members
    monkeypatch.setattr(extension_catalog, "enumerate_EP", refuse)
    monkeypatch.setattr(extension_catalog, "enumerate_KP", refuse)
    monkeypatch.setattr(extension_catalog, "_ep_members", lambda n: walks.append(n) or real(n))
    _, table = ext_dimension(10, "catalog")
    assert table.as_dict() == EXT_TABLES[10]
    assert walks == [10]
