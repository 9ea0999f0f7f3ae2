import doctest
import math

import pytest
from hypothesis import given, strategies as st

from braidinv import core_combinatorics
from braidinv.core_combinatorics import (
    Partition,
    all_partitions,
    binomial,
    enumerate_partitions,
    gap_necklaces,
    min_rotation,
    mobius,
    packed_series,
)
from dict_series import series_times

# partition numbers p(1)..p(12)
PARTITION_NUMBERS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partition_basics():
    lam = Partition((3, 2, 1, 1))
    assert lam.n == 7
    assert lam.part_count == 4
    assert lam.degree == 3
    assert lam.blocks == ((3, 1), (2, 1), (1, 2))
    assert str(lam) == "(3,2,1,1)"
    assert lam.block_start(1) == 0
    assert lam.block_start(2) == 3
    assert lam.block_start(4) == 6


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition(())


def test_enumerate_partitions_examples():
    assert [p.parts for p in enumerate_partitions(6, 2)] == [(5, 1), (4, 2), (3, 3)]
    assert [p.parts for p in enumerate_partitions(5, 1)] == [(5,)]
    assert [p.parts for p in enumerate_partitions(3, 3)] == [(1, 1, 1)]
    with pytest.raises(ValueError):
        enumerate_partitions(3, 4)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_partition_counts(n):
    total = sum(len(enumerate_partitions(n, j)) for j in range(1, n + 1))
    assert total == PARTITION_NUMBERS[n - 1]
    assert len(all_partitions(n)) == total


def test_all_partitions_ordered_by_part_count():
    counts = [p.part_count for p in all_partitions(6)]
    assert counts == sorted(counts)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(4, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0


@given(st.integers(0, 40), st.integers(-5, 45))
def test_binomial_matches_comb(a, b):
    expected = math.comb(a, b) if 0 <= b <= a else 0
    assert binomial(a, b) == expected


@given(st.integers(1, 12), st.integers(1, 12))
def test_vandermonde_multiset_identity(m, N):
    # a multiset of m words from N splits into b distinct words and a
    # composition of m into b multiplicities: why odd parts, whose words
    # repeat, take the factor (1 - X)^-N where even parts take (1 + X)^N
    total = sum(binomial(m - 1, b - 1) * binomial(N, b) for b in range(1, m + 1))
    assert total == binomial(N + m - 1, m)


def test_module_doctests_pass():
    # the test run collects tests/ only, so the docstring examples run here
    result = doctest.testmod(core_combinatorics)
    assert result.failed == 0
    assert result.attempted > 0


def test_min_rotation_examples():
    assert min_rotation((2, 0, 1)) == ((0, 1, 2), 1)
    assert min_rotation((1, 0, 1, 0)) == ((0, 1, 0, 1), 2)
    assert min_rotation((0, 0, 0)) == ((0, 0, 0), 3)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12).map(tuple))
def test_min_rotation_idempotent(w):
    best, mult = min_rotation(w)
    assert min_rotation(best) == (best, mult)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12).map(tuple))
def test_min_rotation_invariant_under_rotation(w):
    best, mult = min_rotation(w)
    for r in range(len(w)):
        assert min_rotation(w[r:] + w[:r]) == (best, mult)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=12).map(tuple))
def test_min_rotation_multiplicity_is_period_count(w):
    best, mult = min_rotation(w)
    hits = sum(1 for r in range(len(w)) if w[r:] + w[:r] == best)
    assert mult == hits
    # multiplicity = length / smallest rotation period
    period = len(w) // mult
    assert best[period:] + best[:period] == best


def _weak_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _gap_necklaces_by_compositions(d, total):
    """Brute-force walk: the weak compositions of total into d parts that
    are their own least rotation, ascending, each with its least period,
    d over its rotation multiplicity."""
    out = []
    for comp in _weak_compositions(total, d):
        least, mult = min_rotation(comp)
        if comp == least:
            out.append((comp, d // mult))
    return sorted(out)


@pytest.mark.parametrize("d", range(1, 11))
def test_gap_necklaces_match_composition_listing(d):
    for total in range(11):
        walked = list(gap_necklaces(d, total))
        assert walked == _gap_necklaces_by_compositions(d, total)


def test_gap_necklaces_of_two_gaps():
    # (c, total - c) for c up to total / 2, of period 1 only at the middle
    assert list(gap_necklaces(2, 5)) == [((0, 5), 2), ((1, 4), 2), ((2, 3), 2)]
    assert list(gap_necklaces(2, 4)) == [((0, 4), 2), ((1, 3), 2), ((2, 2), 1)]
    assert list(gap_necklaces(2, 0)) == [((0, 0), 1)]


def test_gap_necklaces_last_letter_at_its_floor():
    # the last letter equals the letter one period back: kept with that
    # period when it divides the length, as (0,1,0,1) and (1,1,1), and
    # dropped when it does not, as the prenecklace (0,0,1,0,0)
    assert list(gap_necklaces(4, 2)) == [
        ((0, 0, 0, 2), 4), ((0, 0, 1, 1), 4), ((0, 1, 0, 1), 2),
    ]
    assert list(gap_necklaces(3, 3)) == [
        ((0, 0, 3), 3), ((0, 1, 2), 3), ((0, 2, 1), 3), ((1, 1, 1), 1),
    ]
    assert list(gap_necklaces(5, 1)) == [((0, 0, 0, 0, 1), 5)]
    assert list(gap_necklaces(6, 0)) == [((0,) * 6, 1)]


def test_gap_necklaces_of_one_gap_take_the_whole_total():
    assert list(gap_necklaces(1, 10**12)) == [((10**12,), 1)]


def test_mobius_pinned():
    assert [mobius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        mobius(0)


def test_series_times_multiplies_and_truncates():
    # (1 + 2X + X^2)(1 - X)^-1 with X = y^2 t, sizes up to 5
    series = series_times({(0, 0): 1}, (2, 1), [1, 2, 1], 5)
    assert series == {(0, 0): 1, (2, 1): 2, (4, 2): 1}
    series = series_times(series, (2, 1), [1, 1, 1], 5)
    assert series == {(0, 0): 1, (2, 1): 3, (4, 2): 4}


def test_packed_series_decodes_signed_slots():
    # (1 - Y)^2 (1 + 3 Y^2) (1 + Y^3) (1 + y^4 t^2), Y = y t: at size 4,
    # Y^2 Y^2 gives 3 t^3, Y Y^3 gives -2 t^2 and y^4 t^2 gives t^2
    factors = {1: [(1, 1, [1, -2, 1])], 2: [(2, 1, [1, 3])],
               3: [(3, 1, [1, 1])], 4: [(4, 2, [1, 1])]}
    assert packed_series(4, 5, factors.get) == [0, 0, -1, 3, 0]
    series = {(0, 0): 1}
    for v in range(1, 5):
        for size, slot, coeffs in factors[v]:
            series = series_times(series, (size, slot), coeffs, 4)
    assert {key: a for key, a in series.items() if key[0] == 4 and a} == {
        (4, 2): -1, (4, 3): 3
    }
