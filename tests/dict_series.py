"""The dict series engine the packed one replaced, kept as the tests'
reference.

A series maps exponent tuples, size first, to integer coefficients, and
each factor step rebuilds the dict; nothing is packed, so a slot overflow
or a wrong decode in ``core_combinatorics.packed_series`` cannot hide here.
"""

import operator

from braidinv.core_combinatorics import binomial
from braidinv.cycle_invariants import necklace_count
from braidinv.extension_catalog import _fixed_factors


def series_times(series, step, coeffs, limit):
    """The series times the sum of coeffs[c] X^c, X the monomial with
    exponents step, dropping terms whose first exponent (size) exceeds limit."""
    out = {key: a * coeffs[0] for key, a in series.items()}
    for c in range(1, len(coeffs)):
        shift = tuple(c * s for s in step)
        for key, a in series.items():
            if coeffs[c] and key[0] + shift[0] <= limit:
                moved = tuple(map(operator.add, key, shift))
                out[moved] = out.get(moved, 0) + a * coeffs[c]
    return out


def untrimmed_label_series(n):
    """The label series keyed by (size, weight, part count), every term of
    size up to n kept."""
    series = {(0, 0, 0): 1}
    for v in range(1, n + 1):
        for d in range(v + 1):
            p = necklace_count(v, d)
            if p:
                coeffs = [
                    binomial(p + c - 1, c) if v % 2 else binomial(p, c)
                    for c in range(n // v + 1)
                ]
                series = series_times(series, (v, d, 1), coeffs, n)
    return series


def fixed_series(n, signed):
    """The EP series (signed False) or the signed sum, keyed by (size,
    part count), every term of size up to n kept."""
    series = {(0, 0): 1}
    for v in range(1, n + 1):
        for size, slot, coeffs in _fixed_factors(n, signed, v):
            series = series_times(series, (size, slot), coeffs, n)
    return series
