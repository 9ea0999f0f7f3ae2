"""The oracle's isotropy by listing, kept as the tests' reference.

The oracle decides each character sum on generators of the isotropy and
reads the isotropy order from its structure.  This module lists the
isotropy element by element instead and sums the character over it, so
the tests can check both the generator verdict and the order, and assert
on every coset that the reduced sum is 0 or the isotropy order.
"""

from braidinv.character_oracle import (
    CyclotomicSum,
    GroupSpec,
    _character_exponent,
    _value_runs,
    root_order,
)
from braidinv.core_combinatorics import Partition
from braidinv.errors import InternalConsistencyError


def stabilizer(lam: Partition, word, flip: bool = False):
    """The centralizer elements z that keep a 0/1 word on the points 1..n
    (the letter at z(x) is the letter at x), or with flip complement it,
    as their (block_map, exponents) data.

    Backtracks part by part: part i may go to an unused part j of its value
    with rotation e only if that carries part i's letters onto part j's.
    """
    starts = [lam.block_start(i + 1) for i in range(lam.part_count)]
    segments = [tuple(word[s:s + v]) for s, v in zip(starts, lam.parts)]
    options = []
    for i, v in enumerate(lam.parts):
        want = tuple(1 - b for b in segments[i]) if flip else segments[i]
        options.append([
            (j, e)
            for j in range(lam.part_count)
            if lam.parts[j] == v
            for e in range(v)
            if segments[j][e:] + segments[j][:e] == want
        ])
    block_map = [0] * lam.part_count
    exponents = [0] * lam.part_count
    used = [False] * lam.part_count

    def place(i):
        if i == lam.part_count:
            yield tuple(block_map), tuple(exponents)
            return
        for j, e in options[i]:
            if not used[j]:
                used[j] = True
                block_map[i], exponents[i] = j, e
                yield from place(i + 1)
                used[j] = False

    return place(0)


def listed_isotropy_sum(s, lam: Partition, group: GroupSpec):
    """Coefficient counts of the character sum over the twisted isotropy.

    Conjugated by s, the isotropy is the stabilizer in the centralizer of
    the marking word of s (for the extension: of the word up to complement).
    Returns (counts per exponent, isotropy order)."""
    word = tuple(int(x > group.n - group.q) for x in s)
    flips = (False, True) if group.variant == "extension" else (False,)
    L = root_order(lam)
    runs = _value_runs(lam)
    counts = [0] * L
    for flip in flips:
        for block_map, exponents in stabilizer(lam, word, flip):
            counts[_character_exponent(lam, runs, block_map, exponents, L)] += 1
    return counts, sum(counts)


def listed_inner_product(s, lam: Partition, group: GroupSpec):
    """(multiplicity of the trivial character, isotropy order) from the
    listed sum, which must reduce to 0 or the isotropy order; anything else
    would violate the character axioms and raises."""
    counts, total = listed_isotropy_sum(s, lam, group)
    value = CyclotomicSum(root_order(lam), tuple(counts)).integer_value()
    if value == 0:
        return 0, total
    if value == total:
        return 1, total
    raise InternalConsistencyError(
        "character sum for %s on %s reduced to %r, expected 0 or %d"
        % (lam, s, value, total)
    )
