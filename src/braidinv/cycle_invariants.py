"""Binary markings on cycles and their rotation-invariant gap words.

A marking of [n] restricts to each consecutive cycle interval of a partition;
what survives conjugation by the centralizer is the cyclic word of zero-gaps
between marked positions.  This module builds those gap words, the complement
duality, the admissibility predicate, the sets Pi(lam, d) of admissible
weight-d words, and the self-dual words at half weight, each listing with
its closed-form count.  check_gap_word states what a gap word is and
cycle_admissible the admissibility rule, which InvariantCycle's
constructor runs and admissible_words runs on plain tuples; necklace_count
states the rule for counting.  Both listings walk the package's one
fixed-density necklace loop, core_combinatorics.gap_necklaces, which the
oracle's rotation classes also come from; the self-dual words at weight d
are in bijection with the binary Lyndon words of length d and odd weight,
through the cyclic difference word.  Each listed word is checked, and its
rotation multiplicity read, by necklace_multiplicity, a linear scan.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, Optional, Sequence, Tuple

from .core_combinatorics import (
    Frozen, Word, binomial, gap_necklaces, min_rotation, mobius,
    necklace_multiplicity,
)
from .errors import InternalConsistencyError, listing_fault


def check_gap_word(length: int, gaps: Optional[Word]) -> int:
    """The rotation multiplicity of a gap word on a cycle of this length:
    1 for None, the empty marking; ValueError unless a non-empty word has
    1 to length entries, none negative, summing to length less their
    number, and is its own least rotation (necklace_multiplicity)."""
    if length < 1:
        raise ValueError("cycle length must be positive")
    if gaps is None:
        return 1
    d = len(gaps)
    if not 1 <= d <= length:
        raise ValueError("gap word length out of range")
    if min(gaps) < 0:
        raise ValueError("gaps must be non-negative")
    if sum(gaps) != length - d:
        raise ValueError("gap word must sum to length - weight")
    multiplicity = necklace_multiplicity(gaps)
    if not multiplicity:
        raise ValueError("gap word must be in minimal rotation form")
    return multiplicity


def cycle_admissible(length: int, weight: int, multiplicity: int) -> bool:
    """Whether a word of this weight and rotation multiplicity on a cycle
    of this length can carry a nonzero invariant.  Parts of length 1 and 2
    are unconstrained; on a longer one the weight is strictly between 0 and
    the length, and the multiplicity is 1, or at most 2 when the length is
    2 mod 4."""
    if length <= 2:
        return True
    if not 1 <= weight <= length - 1:
        return False
    if length % 4 == 2:
        return multiplicity <= 2
    return multiplicity == 1


class InvariantCycle(Frozen):
    """A canonical cyclic gap word on a cycle of a given length.

    gaps is None for the empty marking.  A non-empty word with d entries
    records the zeros strictly between consecutive marked positions read
    cyclically, so its entries sum to length - d.  Stored in minimal
    rotation form, with its weight, the number of rotations that attain
    it, whether cycle_admissible holds, and its cycle_block_key, all of
    which the constructor sets after check_gap_word.  Cycles are equal,
    hashed and shown by length and gaps alone.
    """

    __slots__ = ("length", "gaps", "weight", "multiplicity", "admissible", "block_key")
    _fields = ("length", "gaps")

    def __init__(self, length: int, gaps: Optional[Word]):
        if gaps is not None:
            gaps = tuple(gaps)
        multiplicity = check_gap_word(length, gaps)
        d = len(gaps) if gaps else 0
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "weight", d)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "admissible", cycle_admissible(length, d, multiplicity))
        object.__setattr__(self, "block_key", (-d, gaps or ()))

    @classmethod
    def empty(cls, length: int) -> "InvariantCycle":
        return cls(length, None)

    @classmethod
    def from_gaps(cls, length: int, gaps: Sequence[int]) -> "InvariantCycle":
        return cls(length, min_rotation(gaps)[0])

    def __str__(self):
        if self.gaps is None:
            return "()"
        return "(" + ",".join(map(str, self.gaps)) + ")"


# canonical order inside a block: weight descending, then word; each cycle
# stores its key once, when built
cycle_block_key = attrgetter("block_key")


def dual_cycle(chi: InvariantCycle) -> InvariantCycle:
    """Gap word of the complemented marking on the same cycle.

    An involution exchanging weight d and weight length - d.  The
    complement of 1 0^g1 ... 1 0^gd is 0 1^g1 ... 0 1^gd; read from a
    block with g > 0, each 1 opens a gap and each 0 lengthens the last.
    """
    if chi.gaps is None:
        return InvariantCycle(chi.length, (0,) * chi.length)
    k = next((t for t, g in enumerate(chi.gaps) if g), None)
    if k is None:
        return InvariantCycle.empty(chi.length)
    gaps = []
    for g in chi.gaps[k:] + chi.gaps[:k]:
        gaps.extend([0] * g)
        gaps[-1] += 1
    return InvariantCycle.from_gaps(chi.length, gaps)


def _aperiodic_count(v: int, d: int) -> int:
    # Moreau: primitive binary necklaces of length v with d ones
    g = math.gcd(v, d)
    return sum(
        mobius(e) * binomial(v // e, d // e) for e in range(1, g + 1) if g % e == 0
    ) // v


def necklace_count(v: int, d: int) -> int:
    """|Pi(v, d)|, counted by the rule cycle_admissible applies: every weight
    once on parts 1 and 2; otherwise the primitive necklaces of weight
    0 < d < v, plus on v = 2 mod 4 the squares of primitive necklaces of
    half length."""
    if v <= 2:
        return 1
    if d in (0, v):
        return 0
    squares = _aperiodic_count(v // 2, d // 2) if v % 4 == 2 and d % 2 == 0 else 0
    return _aperiodic_count(v, d) + squares


def _walk(lam_i: int, d: int, check):
    """(gaps, check(lam_i, gaps)) for Pi(lam_i, d)'s candidate words,
    ascending, None being the empty marking; a word that check refuses is
    the walk's fault.  The arguments are checked on the call."""
    if lam_i < 1:
        raise ValueError("cycle length must be positive")
    if not 0 <= d <= lam_i:
        raise ValueError("need 0 <= d <= lam_i")
    # d = lam_i > 2 leaves all zeros, inadmissible, lam_i steps into the walk
    words = () if d == lam_i > 2 else gap_necklaces(d, lam_i - d) if d else [(None, 1)]

    def checked():
        for gaps, _ in words:
            try:
                value = check(lam_i, gaps)
            except ValueError as exc:
                raise listing_fault("Pi(%d, %d)" % (lam_i, d), gaps, exc) from None
            yield gaps, value

    return checked()


def admissible_words(lam_i: int, d: int) -> Iterator[Optional[Word]]:
    """The gap words of Pi(lam_i, d), ascending, as plain tuples (None is
    the empty marking), one at a time: each walked word passes the
    constructor's check_gap_word and is yielded if cycle_admissible admits
    it, and no cycle is built.  The arguments are checked on the call."""
    walk = _walk(lam_i, d, check_gap_word)
    return (gaps for gaps, m in walk if cycle_admissible(lam_i, d, m))


@lru_cache(maxsize=None)
def enumerate_Pi(lam_i: int, d: int) -> Tuple[InvariantCycle, ...]:
    """The cycles of admissible_words(lam_i, d), each built once, and checked
    by its constructor, from the same walk; kept for the block pools."""
    return tuple(chi for _, chi in _walk(lam_i, d, InvariantCycle) if chi.admissible)


@lru_cache(maxsize=None)
def enumerate_selfdual(d: int) -> Tuple[InvariantCycle, ...]:
    """Complement-self-dual weight-d words on a cycle of length 2d.

    These are the aperiodic binary necklaces w of length 2d whose letter
    t + d complements letter t.  Such a word whose complement already
    appears at a rotation by a proper divisor s of d has period 2s, so
    keeping the aperiodic words drops exactly those.

    They are listed from their cyclic difference words delta[t] =
    w[t] xor w[t+1], which have period d and odd weight over one period.
    Conversely an odd-weight delta of length d, summed from 0 around 2d
    steps, closes up into such a w; summed from 1 it gives the complement
    of w, which is w rotated by d, the same necklace.  Rotating w rotates
    delta, and w is aperiodic iff delta is primitive, so the necklaces are
    in bijection with the binary Lyndon words of length d and odd weight k:
    the aperiodic gap words of k entries summing to d - k.  Summed twice
    around, delta = 1 0^g1 ... 1 0^gk gives w = 1^(g1+1) 0^(g2+1)
    1^(g3+1) ..., k being odd, whose run of a + 1 ones and the b + 1 zeros
    after it are the gaps 0^a, b + 1 of w.

    Every word has length 2d and weight d, so the least rotations are
    compared and sorted as plain tuples, which is their cycles' equality
    and cycle_block_key order, and each cycle is built once, in order.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    out = set()
    words = 0
    for k in range(1, d + 1, 2):
        for gaps, p in gap_necklaces(k, d - k):
            if p != k:
                continue
            words += 1
            runs = gaps + gaps
            word = []
            for a, b in zip(runs[::2], runs[1::2]):
                word.extend([0] * a)
                word.append(b + 1)
            out.add(min_rotation(word)[0])
    if len(out) != words:
        raise InternalConsistencyError("two Lyndon words gave one self-dual word")
    return tuple([InvariantCycle(2 * d, gaps) for gaps in sorted(out)])


def selfdual_count_closed_form(d: int) -> int:
    """Count of complement-self-dual weight-d words on a 2d-cycle.

    (1/2d) times the sum of mu(e) 2^(d/e) over the odd divisors e of d;
    the division must be exact.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    total = sum(mobius(e) * 2 ** (d // e) for e in range(1, d + 1, 2) if d % e == 0)
    if total % (2 * d) != 0:
        raise InternalConsistencyError(
            "self-dual count %d not divisible by %d" % (total, 2 * d)
        )
    return total // (2 * d)


def _binomial_exceeds(a: int, b: int, cap: int) -> bool:
    """Whether C(a, b) > cap, for 0 <= b <= a, in O(log cap) steps."""
    k = min(b, a - b)
    c = 1
    for i in range(1, k + 1):
        # c = C(a - k + i, i), at least doubling since a - k >= k >= i
        c = c * (a - k + i) // i
        if c > cap:
            return True
    return False


def Pi_letters_exceed(v: int, d: int, limit: int) -> bool:
    """Whether enumerate_Pi(v, d) holds more than limit letters, d to a
    word; False for arguments it refuses.

    Takes no binomial above T = max(4v^2, 2v limit).  A periodic word
    repeats a block of some proper divisor length p of v, and two such
    blocks side by side are words C(v, d) counts, so there are at most
    (v - 1) sqrt(C(v, d)) periodic words.  Once C(v, d) > T that is at
    most C(v, d)/2, which leaves more than limit primitive necklaces.
    """
    if not (v >= 1 and 0 <= d <= v):
        return False
    cap = max(4 * v * v, 2 * v * limit)
    if v >= 3 and 0 < d < v and _binomial_exceeds(v, d, cap):
        return True
    return necklace_count(v, d) * d > limit


def selfdual_letters_exceed(d: int, limit: int) -> bool:
    """Whether enumerate_selfdual(d) holds more than limit letters, d to a
    word; False for arguments it refuses.

    Takes no power of 2 above 2^(d-2) <= limit: for d >= 5 the odd
    divisors e >= 3 take at most d 2^(d/3) <= 2^(d-1) off 2^d in the
    closed form, so there are at least 2^(d-2)/d words.
    """
    if d < 1:
        return False
    if d >= 5 and d - 2 >= limit.bit_length():
        return True
    return selfdual_count_closed_form(d) * d > limit
