import itertools
import tracemalloc
from typing import Sequence, Tuple

import pytest
from hypothesis import given, strategies as st

from braidinv import cli, core_combinatorics, cycle_invariants, product_catalog
from braidinv.core_combinatorics import Partition, binomial, min_rotation
from braidinv.cycle_invariants import (
    InvariantCycle,
    Pi_letters_exceed,
    admissible_cycles,
    cycle_admissible,
    cycle_block_key,
    dual_cycle,
    enumerate_Pi,
    enumerate_selfdual,
    necklace_count,
    selfdual_count_closed_form,
    selfdual_letters_exceed,
)
from braidinv.errors import InternalConsistencyError
from test_core_combinatorics import _weak_compositions


def _gap_word(positions: Sequence[int], lam: int) -> Tuple[int, ...]:
    """Raw gap word of marked positions (1-based, ascending) on a lam-cycle.

    The last coordinate closes the cycle: zeros from the last marked position
    back around to the first.
    """
    d = len(positions)
    gaps = [positions[t + 1] - positions[t] - 1 for t in range(d - 1)]
    gaps.append(lam - positions[-1] + positions[0] - 1)
    return tuple(gaps)


def cycle_from_bits(lam: int, bits: Sequence[int]) -> InvariantCycle:
    """Gap word of a 0/1 sequence of length lam read cyclically."""
    if len(bits) != lam:
        raise ValueError("bit word length must equal the cycle length")
    positions = [t + 1 for t, b in enumerate(bits) if b]
    if not positions:
        return InvariantCycle.empty(lam)
    return InvariantCycle.from_gaps(lam, _gap_word(positions, lam))


def block_support(word: Sequence[int], lam: Partition, i: int) -> Tuple[int, ...]:
    """Marked positions of a 0/1 word on the points 1..n inside the i-th
    part interval, ascending, 1-based."""
    if any(b not in (0, 1) for b in word):
        raise ValueError("a marking word has letters 0 and 1 only")
    if len(word) != lam.n:
        raise ValueError("marking length must match the partition total")
    start = lam.block_start(i)
    lam_i = lam.parts[i - 1]
    return tuple(p for p in range(start + 1, start + lam_i + 1) if word[p - 1])


def invariant_cycle(word: Sequence[int], lam: Partition, i: int) -> InvariantCycle:
    """Canonical gap word of a 0/1 word restricted to the i-th cycle."""
    support = block_support(word, lam, i)
    lam_i = lam.parts[i - 1]
    if not support:
        return InvariantCycle.empty(lam_i)
    start = lam.block_start(i)
    relative = [p - start for p in support]
    return InvariantCycle.from_gaps(lam_i, _gap_word(relative, lam_i))


def test_block_support():
    lam = Partition((3, 2, 1))
    word = (0, 1, 1, 0, 1, 0)
    assert block_support(word, lam, 1) == (2, 3)
    assert block_support(word, lam, 2) == (5,)
    assert block_support(word, lam, 3) == ()
    with pytest.raises(ValueError):
        block_support((0, 1, 2, 0, 1, 0), lam, 1)


def test_invariant_cycle_examples():
    lam = Partition((4, 2))
    # block positions 2 and 4 of the 4-cycle: gaps 1 then wrap 4-4+2-1
    word = (0, 1, 0, 1, 0, 0)
    chi = invariant_cycle(word, lam, 1)
    assert chi.length == 4 and chi.gaps == (1, 1)
    assert invariant_cycle(word, lam, 2) == InvariantCycle.empty(2)


def test_invariant_cycle_is_rotation_canonical():
    lam = Partition((5,))
    a = invariant_cycle((1, 0, 1, 0, 0), lam, 1)
    b = invariant_cycle((0, 1, 0, 1, 0), lam, 1)
    c = invariant_cycle((0, 0, 1, 0, 1), lam, 1)
    assert a == b == c


def test_gap_sum_rule():
    for lam_i in range(1, 9):
        for bits in itertools.product((0, 1), repeat=lam_i):
            chi = cycle_from_bits(lam_i, bits)
            if chi.gaps is None:
                assert sum(bits) == 0
                continue
            assert len(chi.gaps) == sum(bits)
            assert len(chi.gaps) + sum(chi.gaps) == lam_i


def test_cycle_validation():
    with pytest.raises(ValueError):
        InvariantCycle(3, (0, 0))  # sums to 0, needs 3 - 2 = 1
    with pytest.raises(ValueError):
        InvariantCycle(3, (1, 1))  # sums to 2, needs 1
    with pytest.raises(ValueError):
        InvariantCycle(4, (2, 0))  # right sum, wrong rotation: (0,2) is least
    assert InvariantCycle(4, (1, 1)).weight == 2


@pytest.mark.parametrize("lam", range(1, 17))
def test_stored_multiplicity_is_the_rotation_count(lam):
    for d in range(lam + 1):
        for chi in enumerate_Pi(lam, d):
            expected = 1 if chi.gaps is None else min_rotation(chi.gaps)[1]
            assert chi.rotation_multiplicity() == expected


@pytest.mark.parametrize("lam", range(1, 13))
def test_every_cycle_stores_its_block_key(lam):
    # with the self-dual words on a 2 lam-cycle
    cycles = [InvariantCycle.empty(lam), *enumerate_selfdual(lam)]
    for d in range(lam + 1):
        cycles.extend(enumerate_Pi(lam, d))
    for chi in cycles:
        assert chi.block_key == (-chi.weight, chi.gaps or ())
        assert cycle_block_key(chi) is chi.block_key
        # the key is read off the cycle and is not part of its identity
        assert chi == InvariantCycle(chi.length, chi.gaps)
        dual = dual_cycle(chi)
        assert dual.block_key == (chi.weight - chi.length, dual.gaps or ())


def test_admissible_cycles_checks_its_arguments_on_the_call():
    for lam, d in ((0, 0), (3, -1), (3, 4)):
        with pytest.raises(ValueError):
            admissible_cycles(lam, d)
    for lam, d in ((1, 0), (2, 2), (3, 0), (5, 5), (10, 4)):
        assert tuple(admissible_cycles(lam, d)) == enumerate_Pi(lam, d)


@pytest.mark.parametrize("lam", range(1, 9))
def test_every_necklace_stores_its_multiplicity(lam):
    # admissible or not: periodic words attain their least rotation d/p times
    for d in range(1, lam + 1):
        for comp in set(_weak_compositions(lam - d, d)):
            least, count = min_rotation(comp)
            assert InvariantCycle(lam, least).rotation_multiplicity() == count


def test_from_gaps_rotates_once(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return min_rotation(w)

    monkeypatch.setattr(cycle_invariants, "min_rotation", counted)
    for lam in range(1, 9):
        for bits in itertools.product((0, 1), repeat=lam):
            if not any(bits):
                continue
            before = len(calls)
            chi = cycle_from_bits(lam, bits)
            assert len(calls) == before + 1
            assert chi.admissible == cycle_admissible(chi)
            assert chi.rotation_multiplicity() == min_rotation(chi.gaps)[1]
    # the constructor alone checks the rotation by its linear scan
    before = len(calls)
    InvariantCycle(6, (0, 1, 2))
    with pytest.raises(ValueError):
        InvariantCycle(6, (1, 2, 0))
    assert len(calls) == before


def test_rotation_scan_agrees_with_min_rotation():
    # all 12,869 weak compositions with 1 <= d <= 8 entries summing to <= 7
    seen = 0
    for d in range(1, 9):
        for total in range(8):
            for w in _weak_compositions(total, d):
                seen += 1
                least, count = min_rotation(w)
                if w != least:
                    with pytest.raises(ValueError, match="minimal rotation"):
                        InvariantCycle(total + d, w)
                    continue
                assert InvariantCycle(total + d, w).rotation_multiplicity() == count
    assert seen == 12869


def test_listing_computes_no_rotation(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return min_rotation(w)

    monkeypatch.setattr(cycle_invariants, "min_rotation", counted)
    monkeypatch.setattr(core_combinatorics, "min_rotation", counted)
    enumerate_Pi.cache_clear()
    product_catalog._block_assignments.cache_clear()
    assert len(enumerate_Pi(21, 10)) == 16796
    assert product_catalog.enumerate_generators(12, 6)
    assert calls == []


def test_rotation_check_memory_is_linear():
    # one Lyndon word of 3,000 letters: all its rotations would take ~70 MB
    word = (0,) * 2999 + (1,)
    tracemalloc.start()
    try:
        chi = InvariantCycle(3001, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chi.rotation_multiplicity() == 1
    assert peak < 5 * 2**20


@pytest.mark.parametrize("lam", range(1, 10))
def test_non_least_rotation_raises(lam):
    for d in range(1, lam + 1):
        for chi in enumerate_Pi(lam, d):
            for r in range(1, d):
                turned = chi.gaps[r:] + chi.gaps[:r]
                if turned == chi.gaps:
                    continue
                with pytest.raises(ValueError):
                    InvariantCycle(lam, turned)


def test_cycle_str():
    assert str(InvariantCycle.empty(3)) == "()"
    assert str(InvariantCycle(4, (0, 2))) == "(0,2)"


def test_dual_cycle_examples():
    assert dual_cycle(InvariantCycle(2, (1,))) == InvariantCycle(2, (1,))
    assert dual_cycle(InvariantCycle(4, (0, 2))) == InvariantCycle(4, (0, 2))
    assert dual_cycle(InvariantCycle(6, (0, 1, 2))) == InvariantCycle(6, (0, 2, 1))
    assert dual_cycle(InvariantCycle.empty(3)) == InvariantCycle(3, (0, 0, 0))


def _dual_by_bits(chi):
    """The complement read through a bit word: mark position 1, write
    each gap as zeros, flip every letter and read the gaps back."""
    if chi.gaps is None:
        bits = (0,) * chi.length
    else:
        bits = tuple(b for g in chi.gaps for b in (1,) + (0,) * g)
    return cycle_from_bits(chi.length, tuple(1 - b for b in bits))


@pytest.mark.parametrize("lam", range(1, 15))
def test_dual_cycle_matches_the_bit_route(lam):
    for d in range(lam + 1):
        for chi in enumerate_Pi(lam, d):
            assert dual_cycle(chi) == _dual_by_bits(chi)
    for chi in (InvariantCycle.empty(lam), InvariantCycle(lam, (0,) * lam)):
        assert dual_cycle(chi) == _dual_by_bits(chi)


@pytest.mark.parametrize("lam", range(1, 13))
def test_dual_cycle_involution_and_bijection(lam):
    for d in range(lam + 1):
        Pi = enumerate_Pi(lam, d)
        duals = [dual_cycle(chi) for chi in Pi]
        for chi, mate in zip(Pi, duals):
            assert mate.weight == lam - d
            assert dual_cycle(mate) == chi
        assert sorted(duals, key=cycle_block_key) == list(enumerate_Pi(lam, lam - d))


def test_admissibility_rules():
    assert cycle_admissible(InvariantCycle.empty(1))
    assert cycle_admissible(InvariantCycle.empty(2))
    assert not cycle_admissible(InvariantCycle.empty(3))
    assert cycle_admissible(InvariantCycle(2, (1,)))
    # (1,1) on a 4-cycle repeats with period 2; 4 is 0 mod 4 so it is out
    assert not cycle_admissible(InvariantCycle(4, (1, 1)))
    # the same doubling on a 6-cycle: 6 is 2 mod 4, multiplicity 2 allowed
    assert cycle_admissible(InvariantCycle(6, (2, 2)))
    # but a tripled word is out everywhere
    assert not cycle_admissible(InvariantCycle(6, (1, 1, 1)))
    assert cycle_admissible(InvariantCycle(6, (0, 0, 3)))


@pytest.mark.parametrize("lam", range(3, 13))
def test_enumerate_Pi_multiplicity_filter(lam):
    for d in range(lam + 1):
        for chi in enumerate_Pi(lam, d):
            assert 1 <= chi.weight <= lam - 1
            mult = chi.rotation_multiplicity()
            if lam % 4 == 2:
                assert mult <= 2
            else:
                assert mult == 1


def test_enumerate_Pi_examples():
    assert [c.gaps for c in enumerate_Pi(2, 1)] == [(1,)]
    assert [c.gaps for c in enumerate_Pi(4, 2)] == [(0, 2)]
    assert [c.gaps for c in enumerate_Pi(6, 3)] == [(0, 0, 3), (0, 1, 2), (0, 2, 1)]
    assert enumerate_Pi(1, 0) == (InvariantCycle.empty(1),)
    assert enumerate_Pi(3, 0) == ()
    assert enumerate_Pi(3, 3) == ()


@given(st.integers(1, 9), st.integers(0, 9))
def test_enumerate_Pi_matches_necklace_count(lam, d):
    # distinct admissible necklaces found by brute rotation classes
    if d > lam:
        return
    classes = set()
    for bits in itertools.combinations(range(lam), d):
        word = tuple(1 if t in bits else 0 for t in range(lam))
        classes.add(min(word[r:] + word[:r] for r in range(lam)))
    admissible = {
        c
        for c in (cycle_from_bits(lam, w) for w in classes)
        if cycle_admissible(c)
    }
    assert admissible == set(enumerate_Pi(lam, d))


def _Pi_by_compositions(lam, d):
    """Brute-force Pi(lam, d): canonicalize every weak composition of
    lam - d into d parts and keep the admissible ones."""
    if d == 0:
        empty = InvariantCycle.empty(lam)
        return (empty,) if cycle_admissible(empty) else ()
    seen = set()
    for comp in _weak_compositions(lam - d, d):
        chi = InvariantCycle(lam, min_rotation(comp)[0])
        if cycle_admissible(chi):
            seen.add(chi)
    return tuple(sorted(seen, key=cycle_block_key))


@pytest.mark.parametrize("lam", range(1, 15))
def test_enumerate_Pi_matches_composition_listing(lam):
    for d in range(lam + 1):
        assert enumerate_Pi(lam, d) == _Pi_by_compositions(lam, d)


@pytest.mark.parametrize(
    "v,d", [(v, d) for v in range(1, 21) for d in range(v + 1)]
)
def test_necklace_count_matches_listing(v, d):
    assert necklace_count(v, d) == len(enumerate_Pi(v, d))


@pytest.mark.parametrize("limit", [1, 5, 40, 1000, 10**6])
def test_Pi_letters_exceed_matches_count(limit):
    for v in range(1, 41):
        for d in range(v + 1):
            assert Pi_letters_exceed(v, d, limit) == (necklace_count(v, d) * d > limit)
    assert not Pi_letters_exceed(5, 6, limit)
    assert not Pi_letters_exceed(0, 0, limit)


@pytest.mark.parametrize("limit", [1, 5, 40, 1000, 10**6])
def test_selfdual_letters_exceed_matches_count(limit):
    for d in range(1, 61):
        exact = selfdual_count_closed_form(d) * d > limit
        assert selfdual_letters_exceed(d, limit) == exact
    assert not selfdual_letters_exceed(0, limit)


@pytest.mark.parametrize("v", range(2, 17, 2))
def test_selfdual_closed_form_counts_selfdual_half_weight_words(v):
    # S(v), the exponent of the self-dual factor in the extension series
    pool = enumerate_Pi(v, v // 2)
    assert selfdual_count_closed_form(v // 2) == sum(dual_cycle(c) == c for c in pool)


SELFDUAL_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 15: 1091, 18: 7280}


@pytest.mark.parametrize("d", range(1, 19))
def test_selfdual_count_matches_closed_form(d):
    members = enumerate_selfdual(d)
    assert len(members) == selfdual_count_closed_form(d)
    if d in SELFDUAL_COUNTS:
        assert len(members) == SELFDUAL_COUNTS[d]


def _selfdual_by_seeds(d):
    """Brute-force self-dual listing: every seed of the first half, its
    complement as the second half, less the words whose complement
    appears at a rotation by a proper divisor of d, least rotation taken."""
    n2 = 2 * d
    mask = (1 << n2) - 1
    half = (1 << d) - 1
    shifts = [s for s in range(1, d) if d % s == 0]

    def rot(x, r):
        return ((x << r) | (x >> (n2 - r))) & mask

    canon = set()
    for seed in range(1 << d):
        x = seed | ((~seed & half) << d)
        comp = ~x & mask
        if any(rot(x, s) == comp for s in shifts):
            continue
        canon.add(min(rot(x, r) for r in range(n2)))
    out = {
        cycle_from_bits(n2, tuple((x >> t) & 1 for t in range(n2)))
        for x in canon
    }
    assert len(out) == len(canon)
    return tuple(sorted(out, key=cycle_block_key))


@pytest.mark.parametrize("d", range(1, 17))
def test_enumerate_selfdual_matches_seed_listing(d):
    assert enumerate_selfdual(d) == _selfdual_by_seeds(d)


@pytest.mark.parametrize("d", range(1, 17))
def test_selfdual_difference_words_are_odd_lyndon_classes(d):
    # w[t] xor w[t+1] repeats with period d, has odd weight over it, is
    # primitive, and no two listed words share its rotation class
    classes = set()
    for chi in enumerate_selfdual(d):
        w = [b for g in chi.gaps for b in (1,) + (0,) * g]
        delta = tuple(w[t] ^ w[(t + 1) % (2 * d)] for t in range(2 * d))
        assert delta[:d] == delta[d:]
        delta = delta[:d]
        assert sum(delta) % 2 == 1
        least, count = min_rotation(delta)
        assert count == 1
        classes.add(least)
    assert len(classes) == len(enumerate_selfdual(d))


@pytest.mark.parametrize("d", range(1, 13))
def test_selfdual_members_are_selfdual_half_weight(d):
    members = enumerate_selfdual(d)
    pool = set(enumerate_Pi(2 * d, d))
    for chi in members:
        assert chi in pool
        assert dual_cycle(chi) == chi
    # and nothing self-dual in the pool is missed
    assert set(members) == {c for c in pool if dual_cycle(c) == c}


def test_weight_zero_and_full_cycles_dualize():
    for lam in range(1, 8):
        full = dual_cycle(InvariantCycle.empty(lam))
        assert full.weight == lam
        assert full.gaps == (0,) * lam


def test_a_repeated_lyndon_word_fails_the_selfdual_listing(monkeypatch, capsys):
    # the walk yields its first Lyndon word twice: two Lyndon words then
    # give one self-dual word, which the listing must refuse
    walk = cycle_invariants.gap_necklaces

    def repeating(d, total):
        repeated = False
        for gaps, p in walk(d, total):
            yield gaps, p
            if p == d and not repeated:
                repeated = True
                yield gaps, p

    monkeypatch.setattr(cycle_invariants, "gap_necklaces", repeating)
    enumerate_selfdual.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="two Lyndon words"):
            enumerate_selfdual(6)
        assert cli.main(["necklace", "selfdual", "--d", "6"]) == 3
        assert "two Lyndon words gave one self-dual word" in capsys.readouterr().err
    finally:
        enumerate_selfdual.cache_clear()
