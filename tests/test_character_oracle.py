import ast
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from braidinv import character_oracle, cli, extension_catalog, product_catalog
from braidinv.character_oracle import (
    GroupSpec,
    _block_polynomials,
    _character_exponent,
    _class_isotropy,
    _classes,
    _orbit_polynomials,
    _pick_generators,
    _pick_isotropy,
    _picked_orbits,
    _sign,
    _walked_orbits,
    oracle_dimension,
    root_order,
)
from braidinv.core_combinatorics import (
    Partition, all_partitions, min_rotation, necklace_multiplicity
)
from braidinv.errors import InternalConsistencyError
from braidinv.extension_catalog import epsilon_sign, ext_dimension
from braidinv.product_catalog import product_dimension
from oracle_listing import (
    CyclotomicSum,
    _assemble,
    _comp,
    _cyclotomic,
    _from_cycles,
    build_centralizer,
    group_generators,
    listed_block,
    listed_dimension,
    listed_inner_product,
    stabilizer,
    zeta_failures,
    zeta_value,
)


def test_perm_basics():
    s = (2, 3, 1)
    assert (s[0], s[2]) == (2, 1)  # 1 -> 2 and 3 -> 1, images 1-based
    assert _comp(s, s) == (3, 1, 2)
    assert _comp(s, (3, 1, 2)) == _comp((3, 1, 2), s) == (1, 2, 3)
    assert _sign(s) == 1
    assert _sign((2, 1, 3)) == -1
    assert _from_cycles(4, (1, 3, 2)) == (3, 1, 2, 4)
    # a non-bijection is refused where a caller's permutation comes in
    with pytest.raises(ValueError):
        zeta_value(Partition((2, 1)), (1, 1, 2))
    # so is one of the wrong degree
    with pytest.raises(ValueError):
        zeta_value(Partition((2, 1)), (2, 1))


def _group_order(group):
    """|S_(n-q) x S_q|, doubled for the extension."""
    base = math.factorial(group.n - group.q) * math.factorial(group.q)
    return 2 * base if group.variant == "extension" else base


def test_group_spec_orders_and_membership():
    assert _group_order(GroupSpec.product(5, 2)) == 12
    assert _group_order(GroupSpec.extension(2)) == 2 * 2 * 2
    assert _group_order(GroupSpec.product(3, 0)) == 6
    with pytest.raises(ValueError):
        GroupSpec("extension", 5, 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_group_spec_every_lists_the_splits_then_the_extension(n):
    groups = GroupSpec.every(n)
    splits = [g for g in groups if g.variant == "product"]
    assert [(g.n, g.q) for g in splits] == [(n, q) for q in range(n // 2 + 1)]
    if n % 2:
        assert groups == tuple(splits)
    else:
        assert groups == (*splits, GroupSpec.extension(n // 2))


def _in_group(group, images):
    """Whether the image tuple keeps the first n - q points together, or,
    in the extension, sends them onto the last n - q."""
    split = group.n - group.q
    low = set(images[:split])
    if low == set(range(1, split + 1)):
        return True
    return group.variant == "extension" and low == set(range(group.q + 1, group.n + 1))


def test_group_generators_generate():
    for g in (GroupSpec.product(4, 2), GroupSpec.extension(2), GroupSpec.product(4, 0)):
        seen = {tuple(range(1, g.n + 1))}
        frontier = [tuple(range(1, g.n + 1))]
        gens = group_generators(g)
        while frontier:
            s = frontier.pop()
            for z in gens:
                t = tuple(s[z[i] - 1] for i in range(g.n))
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        assert len(seen) == _group_order(g)
        assert all(_in_group(g, s) for s in seen)
    assert _in_group(GroupSpec.product(5, 2), (2, 3, 1, 5, 4))
    assert not _in_group(GroupSpec.product(5, 2), (4, 2, 3, 1, 5))
    assert _in_group(GroupSpec.extension(2), (4, 3, 2, 1))  # the reversal itself
    assert not _in_group(GroupSpec.extension(2), (2, 3, 4, 1))


def _centralizer(lam):
    """Every centralizer element, as the stabilizer of the all-zero word."""
    return [_assemble(lam, *data) for data in stabilizer(lam, (0,) * lam.n)]


def _generated(generators, n):
    """The group the generators generate, by breadth-first search."""
    seen = {tuple(range(1, n + 1))}
    frontier = list(seen)
    while frontier:
        z = frontier.pop()
        for g in generators:
            w = _comp(z, g)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_centralizer_orders():
    assert build_centralizer(Partition((2,))).order == 2
    assert build_centralizer(Partition((2, 2))).order == 8
    assert build_centralizer(Partition((3, 1))).order == 3
    assert build_centralizer(Partition((1, 1, 1, 1))).order == 24
    for lam in all_partitions(5):
        pres = build_centralizer(lam)
        elements = set(_centralizer(lam))
        assert len(elements) == pres.order
        # the generators generate exactly those elements
        assert _generated(pres.generators, lam.n) == elements


@pytest.mark.parametrize("n", range(1, 7))
def test_stabilizer_matches_filtered_centralizer(n):
    for lam in all_partitions(n):
        centralizer = _generated(build_centralizer(lam).generators, n)
        for word in itertools.product((0, 1), repeat=n):
            for flip in (False, True):
                listed = [_assemble(lam, *data) for data in stabilizer(lam, word, flip)]
                kept = {
                    z
                    for z in centralizer
                    if all(word[z[x] - 1] == word[x] ^ flip for x in range(n))
                }
                assert len(listed) == len(set(listed))
                assert set(listed) == kept, (lam.parts, word, flip)


def _picks(v, m):
    """Every pick of the block (v, m), its m class indices ascending, with
    its letters and its weight."""
    classes = _classes(v)
    for pick in itertools.combinations_with_replacement(range(len(classes)), m):
        letters = tuple(b"".join(classes[c][0] for c in pick))
        yield pick, letters, sum(letters)


def _pick_of(v, *words):
    """The pick of the classes of length v with these words, each a string
    of 0s and 1s."""
    index = {word: c for c, (word, *_) in enumerate(_classes(v))}
    return tuple(sorted(index[bytes(map(int, word))] for word in words))


@pytest.mark.parametrize("n", range(1, 9))
def test_isotropy_generators_generate_the_listed_stabilizer(n):
    # every pick of every block (v, m) with vm = n, at every weight
    for v in (v for v in range(1, n + 1) if n % v == 0):
        lam = Partition((v,) * (n // v))
        for pick, word, _ in _picks(v, n // v):
            generators, order, complement = _pick_generators(v, pick)
            kept, flipped = (
                {_assemble(lam, *data) for data in stabilizer(lam, word, flip)}
                for flip in (False, True)
            )
            closure = _generated([_assemble(lam, *g) for g in generators], n)
            assert closure == kept, (lam.parts, pick)
            assert order == len(kept)
            # the complementing element exists exactly when one is listed,
            # and then with the generators it generates the stabilizer up to
            # complement
            assert (complement is None) == (not flipped)
            if complement is not None:
                closure = _generated(
                    [_assemble(lam, *g) for g in generators + [complement]], n
                )
                assert closure == kept | flipped, (lam.parts, pick)


@pytest.mark.parametrize("n", range(1, 9))
def test_generator_verdict_and_order_match_listing(n):
    # every pick of every block (v, m) with vm = n, decided on generators,
    # has the verdict and order of its listed stabilizer, and at half weight
    # the complementing element and sign of its listed isotropy up to
    # complement; the listed sum must reduce to 0 or the order, or it raises
    for v in (v for v in range(1, n + 1) if n % v == 0):
        lam = Partition((v,) * (n // v))
        for pick, letters, weight in _picks(v, n // v):
            if 2 * weight > n:
                continue
            trivial, order, sign = _pick_isotropy(lam, pick)
            product = GroupSpec.product(n, weight)
            assert listed_inner_product(letters, lam, product) == (trivial, order)
            if 2 * weight == n:
                flipped = sign is not None
                assert listed_inner_product(
                    letters, lam, GroupSpec.extension(weight)
                ) == (trivial and sign != -1, order * (1 + flipped)), letters


# the blocks with vm <= 10 whose every stabilizer lists in at most 8!
# elements: all 25 but (1, 9) and (1, 10), whose weight-0 stabilizers are
# S_9 and S_10
LISTED_BLOCKS = [
    (v, m)
    for v in range(1, 11)
    for m in range(1, 11)
    if v * m <= 10 and v ** m * math.factorial(m) <= math.factorial(8)
]


def _padded(poly, n):
    """The coefficients of poly by weight 0..n."""
    return tuple(poly) + (0,) * (n + 1 - len(poly))


@pytest.mark.parametrize("v,m", LISTED_BLOCKS)
def test_listed_block_is_the_oracle_block(v, m):
    # P over every weight, its mirrored upper half included, and T
    P, T = _block_polynomials(v, m)
    assert listed_block(v, m) == (P, _padded(T, v * m))


@pytest.mark.parametrize("v", range(1, 17))
def test_walked_block_is_the_picked_block(v):
    # the one-part block decided class by class on the necklace walk has
    # the P and T of its picks decided on generators, from as many orbits
    P, T, classes = _orbit_polynomials(v, 1, _picked_orbits(v, 1))
    assert _block_polynomials(v, 1) == (P, T)
    assert sum(1 for _ in _walked_orbits(v)) == classes


@pytest.mark.parametrize("v", (5, 6, 7, 8))
def test_a_class_dropped_from_the_walk_fails_orbit_stabilizer(
    monkeypatch, cold_oracle, v
):
    # whichever class of weight w <= v / 2 the walk loses, its weight is
    # covered short by its period, the size of its orbit
    walk = character_oracle.gap_necklaces
    classes = [
        (v - d, gaps, p)
        for d in range(v, (v - 1) // 2, -1)
        for gaps, p in walk(d, v - d)
    ]
    assert len(classes) == sum(1 for word in _scanned_classes(v) if 2 * sum(word) <= v)
    for w, gaps, p in classes:
        monkeypatch.setattr(
            character_oracle,
            "gap_necklaces",
            lambda d, total, dropped=gaps: (
                e for e in walk(d, total) if e[0] != dropped
            ),
        )
        words = math.comb(v, w)
        period = v * p // len(gaps)
        with pytest.raises(
            InternalConsistencyError,
            match=r"the orbits of the block \(%d, 1\) cover %d of the %d words "
            r"of weight %d$" % (v, words - period, words, w),
        ):
            _block_polynomials(v, 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_whole_partition_cosets_anchor_the_block_product(n):
    # the whole partition's double cosets, listed as conjugation orbits and
    # never read off a block, give the oracle's table for every group
    for group in GroupSpec.every(n):
        assert listed_dimension(n, group) == oracle_dimension(n, group), group


@pytest.mark.parametrize("v,m", [
    (v, m) for v in range(1, 13) for m in range(1, 13) if v * m <= 12
])
def test_catalog_blocks_are_the_oracle_blocks(v, m):
    # the catalog's checked tuples of the block, counted by weight, are the
    # oracle's P, and its swap-fixed tuples, summed by weight with their
    # signs, its T
    P, T = _block_polynomials(v, m)
    assert product_catalog._block_counts(v, m, v * m) == P
    signed = Counter()
    for cycles, k in extension_catalog._fixed_blocks(v, m):
        weight = sum(chi.weight for chi in cycles)
        signed[weight] += epsilon_sign(Partition((v,) * m), (k,))
    assert tuple(signed[w] for w in range(v * m + 1)) == _padded(T, v * m)


def _all_groups(n):
    """Every product split, q = 0..n, and the extension at even n."""
    groups = [GroupSpec.product(n, q) for q in range(n + 1)]
    if n % 2 == 0:
        groups.append(GroupSpec.extension(n // 2))
    return groups


def test_warm_block_cache_decides_each_block_once(monkeypatch):
    n = 8
    _clear_oracle_caches()
    calls = []  # a pick as its block and class indices, a class as its gaps

    def counted(lam, pick):
        calls.append(("pick", lam.parts, pick))
        return _pick_isotropy(lam, pick)

    def classed(v, gaps, p):
        calls.append(("class", v, gaps))
        return _class_isotropy(v, gaps, p)

    monkeypatch.setattr(character_oracle, "_pick_isotropy", counted)
    monkeypatch.setattr(character_oracle, "_class_isotropy", classed)
    groups = _all_groups(n)
    assert groups[-1].variant == "extension"
    for group in groups:
        oracle_dimension(n, group)
    # both paths decided something, and nothing twice
    assert {key[0] for key in calls} == {"pick", "class"}
    assert len(calls) == len(set(calls))
    # the extension, run last, finds every block the splits share built
    del calls[:]
    oracle_dimension(n, groups[-1])
    assert calls == []
    # a warm cache decides nothing again
    for group in groups:
        oracle_dimension(n, group)
    assert calls == []


def _clear_oracle_caches():
    for value in vars(character_oracle).values():
        if getattr(value, "__module__", None) == character_oracle.__name__:
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_complement_value_off_the_signs_raises(monkeypatch, capsys):
    # (0011) has a trivial stabilizer, so its complementing element, the
    # rotation by 2 with real exponent 2 = L/2, must take a sign; an
    # exponent of 1 breaks the character axioms and is refused, not read
    # as a value other than 1
    def skewed(lam, block_map, exponents):
        if (lam.parts, block_map, exponents) == ((4,), (0,), (2,)):
            return 1
        return _character_exponent(lam, block_map, exponents)

    _clear_oracle_caches()
    monkeypatch.setattr(character_oracle, "_character_exponent", skewed)
    try:
        with pytest.raises(InternalConsistencyError):
            _pick_isotropy(Partition((4,)), _pick_of(4, "0011"))
        assert cli.main(["verify", "--n", "4", "--group", "ext"]) == 3
        assert "internal consistency failure" in capsys.readouterr().err
    finally:
        _clear_oracle_caches()


@pytest.fixture
def cold_oracle():
    """Empty the oracle's caches before and after, so that a patched
    helper is read and what it builds is not kept."""
    _clear_oracle_caches()
    yield
    _clear_oracle_caches()


def test_a_dropped_coset_fails_orbit_stabilizer(monkeypatch, cold_oracle):
    # without its first pick, the all-zero word, every block of two or
    # more parts is covered short at weight 0: none of its one word of
    # weight 0 is covered
    picked = character_oracle._picked_orbits
    monkeypatch.setattr(
        character_oracle,
        "_picked_orbits",
        lambda v, m: itertools.islice(picked(v, m), 1, None),
    )
    with pytest.raises(
        InternalConsistencyError, match="cover 0 of the 1 words of weight 0"
    ):
        oracle_dimension(4, GroupSpec.product(4, 1))


def test_a_wrong_isotropy_order_fails_verify(monkeypatch, capsys, cold_oracle):
    # the block (2, 1) is decided on the necklace walk: a doubled order on
    # its class 01, the gap necklace (1,), still divides |C_2| = 2, but its
    # orbit then covers 1 of the 2 words of weight 1
    def doubled(v, gaps, p):
        trivial, order, sign = _class_isotropy(v, gaps, p)
        if (v, gaps) == (2, (1,)):
            order *= 2
        return trivial, order, sign

    monkeypatch.setattr(character_oracle, "_class_isotropy", doubled)
    assert cli.main(["verify", "--n", "4", "--group", "prod", "--q", "1"]) == 3
    err = capsys.readouterr().err
    assert "internal consistency failure: the orbits of" in err
    assert "the block (2, 1) cover 1 of the 2 words of weight 1" in err


def test_a_wrong_complementing_rotation_fails_verify(
    monkeypatch, capsys, cold_oracle
):
    # the class 01 of length 2 is its own complement by the rotation 1; a
    # table that gives it the rotation 0 assembles, for the pick of the
    # block (2, 2) that holds 01 twice, an element keeping its letters,
    # which the check on the letters refuses
    classes = character_oracle._classes
    (c,) = _pick_of(2, "01")
    assert classes(2)[c][3:] == (c, 1)

    def skewed(v):
        return tuple(
            entry[:4] + (0,) if entry[0] == b"\0\1" else entry for entry in classes(v)
        )

    monkeypatch.setattr(character_oracle, "_classes", skewed)
    assert cli.main(["verify", "--n", "4", "--group", "ext"]) == 3
    err = capsys.readouterr().err
    assert (
        "internal consistency failure: the complementing element of the pick "
        "(01, 01) of the block (2, 2) does not carry its letters" in err
    )


def test_an_odd_extension_count_raises(monkeypatch, cold_oracle):
    # 001011 and 001101, the gap necklaces (0, 1, 2) and (0, 2, 1), are each
    # other's complements, so their verdicts agree; flipping one as the walk
    # decides the block (6, 1) leaves the extension's pairs an odd sum on (6)
    def flipped(v, gaps, p):
        trivial, order, sign = _class_isotropy(v, gaps, p)
        return trivial != ((v, gaps) == (6, (0, 1, 2))), order, sign

    monkeypatch.setattr(character_oracle, "_class_isotropy", flipped)
    with pytest.raises(InternalConsistencyError, match="an odd count"):
        oracle_dimension(6, GroupSpec.extension(3))


def test_root_order():
    assert root_order(Partition((2,))) == 2
    assert root_order(Partition((3,))) == 6
    assert root_order(Partition((4, 3))) == 12
    assert root_order(Partition((5, 3))) == 30


def test_cyclotomic_polynomials():
    assert _cyclotomic(1) == (-1, 1)
    assert _cyclotomic(2) == (1, 1)
    assert _cyclotomic(3) == (1, 1, 1)
    assert _cyclotomic(4) == (1, 0, 1)
    assert _cyclotomic(6) == (1, -1, 1)
    assert _cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_sum_arithmetic():
    # sum of all 6th roots vanishes
    total = CyclotomicSum(6, (1, 1, 1, 1, 1, 1))
    assert total.integer_value() == 0
    # a cube root times its square is 1
    a = CyclotomicSum.monomial(6, 2)
    assert (a * a * a).integer_value() == 1
    assert a != CyclotomicSum.monomial(6, 4)
    # 1 + two primitive cube roots = 0
    s = CyclotomicSum.monomial(6, 0) + CyclotomicSum.monomial(6, 2) + CyclotomicSum.monomial(6, 4)
    assert s.integer_value() == 0
    assert CyclotomicSum.monomial(6, 3).reduced() == (-1,)


def test_zeta_values_pinned():
    assert zeta_value(Partition((2,)), (2, 1)).integer_value() == 1
    # the 3-cycle gets a primitive cube root: x^2 over order 6 reduces to x-1
    assert zeta_value(Partition((3,)), (2, 3, 1)).reduced() == (-1, 1)
    # a block transposition on two 2-cycles is odd
    assert zeta_value(Partition((2, 2)), (3, 4, 1, 2)).integer_value() == -1
    # and on two 3-cycles even
    assert zeta_value(Partition((3, 3)), (4, 5, 6, 1, 2, 3)).integer_value() == 1
    with pytest.raises(ValueError):
        zeta_value(Partition((3, 1)), (1, 2, 4, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_zeta_multiplicative_exhaustive(n):
    assert zeta_failures(n) == ()


def _scanned_classes(v):
    """The least rotations of all 2^v words of 0s and 1s, ascending."""
    words = itertools.product((0, 1), repeat=v)
    return sorted({min_rotation(w)[0] for w in words})


@pytest.mark.parametrize("v", range(1, 13))
def test_rotation_table_is_min_rotation(v):
    # the scan finds min_rotation's least words and counts on 0/1 words
    for word in itertools.product((0, 1), repeat=v):
        least, count = min_rotation(word)
        assert necklace_multiplicity(word) == (count if word == least else 0)
    # and the class table, lightest first, holds each least rotation once,
    # with its weight and, as its stabilizer order, how many rotations
    # attain it
    table = _classes(v)
    assert sorted(tuple(word) for word, *_ in table) == _scanned_classes(v)
    for word, weight, order, _, _ in table:
        assert min_rotation(word) == (tuple(word), order)
        assert weight == sum(word)
    weights = [weight for _, weight, *_ in table]
    assert weights == sorted(weights)


@pytest.mark.parametrize("v", range(1, 17))
def test_class_table_pairs_each_class_with_its_complement(v):
    # each class's complement class holds the least rotation of its
    # complement, and its rotation is the least that carries that least
    # rotation onto the complement
    table = _classes(v)
    for c, (word, _, _, flip, e) in enumerate(table):
        complement = tuple(1 - b for b in word)
        least = min_rotation(complement)[0]
        assert tuple(table[flip][0]) == least
        assert e == min(r for r in range(v) if least[r:] + least[:r] == complement)
        assert table[flip][3] == c


def test_a_dropped_necklace_fails_orbit_stabilizer(monkeypatch, capsys):
    # without the gap necklace (1, 1), the class 0101 of length 4 is
    # missing, so the cosets of (4) at weight 2 cover too few elements
    walk = character_oracle.gap_necklaces

    def dropping(d, total):
        return (entry for entry in walk(d, total) if entry[0] != (1, 1))

    _clear_oracle_caches()
    monkeypatch.setattr(character_oracle, "gap_necklaces", dropping)
    try:
        assert b"\0\1\0\1" not in [word for word, *_ in _classes(4)]
        with pytest.raises(InternalConsistencyError, match="the block \\(4, 1\\)"):
            oracle_dimension(4, GroupSpec.product(4, 2))
        _clear_oracle_caches()
        assert cli.main(["verify", "--n", "4", "--q", "2"]) == 3
        assert "internal consistency failure: the orbits of" in capsys.readouterr().err
    finally:
        _clear_oracle_caches()


def test_a_class_missing_its_complement_raises(monkeypatch, cold_oracle):
    # without the gap necklace (0, 0), the class 00 of length 2 is missing,
    # so the class 11 finds its complement in no class of the table
    walk = character_oracle.gap_necklaces
    monkeypatch.setattr(
        character_oracle,
        "gap_necklaces",
        lambda d, total: (entry for entry in walk(d, total) if entry[0] != (0, 0)),
    )
    with pytest.raises(
        InternalConsistencyError,
        match=r"the complement \(0, 0\) of a class of length 2 is in no class",
    ):
        _classes(2)


def test_isotropy_examples():
    # 01 on a 2-cycle has a trivial stabilizer, and the rotation that
    # complements it takes the value 1, so it counts in T too
    assert _pick_isotropy(Partition((2,)), _pick_of(2, "01")) == (True, 1, 1)
    assert listed_block(2, 1) == ((1, 1, 1), (0, 1, 0))
    # the alternating 0101 on a 4-cycle fails the multiplicity rule; 0011
    # passes, its complementing rotation by 2 taking the value -1
    assert _pick_isotropy(Partition((4,)), _pick_of(4, "0101"))[:2] == (False, 2)
    assert _pick_isotropy(Partition((4,)), _pick_of(4, "0011")) == (True, 1, -1)
    # two parts 01 on (2, 2) are swapped by an odd element, but each rotated
    # onto its complement by an even one
    assert _pick_isotropy(Partition((2, 2)), _pick_of(2, "01", "01")) == (False, 2, 1)
    assert listed_block(4, 1) == ((0, 1, 1, 1, 0), (0, 0, -1, 0, 0))


ORACLE_PRODUCT_NS = range(2, 9)


@pytest.mark.parametrize("n", ORACLE_PRODUCT_NS)
def test_oracle_matches_product_formula(n):
    for q in range(n // 2 + 1):
        oracle = oracle_dimension(n, GroupSpec.product(n, q))
        assert oracle.as_dict() == product_dimension(n, q).as_dict()


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_oracle_matches_ext_formula(n):
    oracle = oracle_dimension(n, GroupSpec.extension(n // 2))
    total, table = ext_dimension(n)
    assert oracle.as_dict() == table.as_dict()
    assert oracle.total == total


def test_oracle_matches_ext_formula_n10():
    oracle = oracle_dimension(10, GroupSpec.extension(5))
    assert oracle.as_dict() == ext_dimension(10)[1].as_dict()


def test_oracle_matches_product_formula_n10():
    for q in range(6):
        oracle = oracle_dimension(10, GroupSpec.product(10, q))
        assert oracle.as_dict() == product_dimension(10, q).as_dict(), q


def test_oracle_capability_gate(capsys):
    # the size gate is the CLI's; the library oracle takes any n
    assert cli.main(["verify", "--n", "10", "--group", "ext"]) == 4
    assert cli.main(["verify", "--n", "12", "--group", "ext", "--long"]) == 4
    assert "capability" in capsys.readouterr().err


def test_oracle_past_the_long_limit_at_n12():
    # the CLI gate stops at n = 10; the oracle itself runs on to n = 12
    for q in range(7):
        oracle = oracle_dimension(12, GroupSpec.product(12, q))
        assert oracle.as_dict() == product_dimension(12, q).as_dict(), q
    oracle = oracle_dimension(12, GroupSpec.extension(6))
    assert oracle.as_dict() == ext_dimension(12)[1].as_dict()


def test_oracle_past_the_long_limit_at_n14():
    for q in range(8):
        oracle = oracle_dimension(14, GroupSpec.product(14, q))
        assert oracle.as_dict() == product_dimension(14, q).as_dict(), q
    oracle = oracle_dimension(14, GroupSpec.extension(7))
    assert oracle.as_dict() == ext_dimension(14)[1].as_dict()


def test_oracle_past_the_long_limit_at_n16():
    groups = [GroupSpec.product(16, q) for q in range(9)]
    groups.append(GroupSpec.extension(8))
    *products, extension = [oracle_dimension(16, group) for group in groups]
    for q, oracle in enumerate(products):
        assert oracle.as_dict() == product_dimension(16, q).as_dict(), q
    assert extension.as_dict() == ext_dimension(16)[1].as_dict()


def test_oracle_matches_the_formula_for_every_group_at_n20():
    for group in GroupSpec.every(20):
        if group.variant == "extension":
            formula = ext_dimension(20)[1]
        else:
            formula = product_dimension(20, group.q)
        assert oracle_dimension(20, group) == formula, group


MEMORY_PROBE = """
import tracemalloc
from braidinv.character_oracle import GroupSpec, oracle_dimension
n = 20
tracemalloc.start()
for group in GroupSpec.every(n):
    oracle_dimension(n, group)
print(tracemalloc.get_traced_memory()[1])
"""


def test_oracle_memory_at_n20():
    # a fresh interpreter, so that no other test's caches count
    src = str(Path(character_oracle.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 2**20


def test_oracle_imports_no_catalog_module():
    # the oracle shares no rule with the catalog or the formulas
    tree = ast.parse(Path(character_oracle.__file__).read_text())
    relative = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert relative == {"core_combinatorics", "errors"}
