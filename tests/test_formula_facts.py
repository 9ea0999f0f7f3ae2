"""Two classical facts the formula route must meet, for every n <= 40.

Young's rule: for q <= n/2 the permutation module of S_(n-q) x S_q is the
sum of the Specht modules S^(n-j, j), j <= q, so in every degree
product_dimension(n, q) - product_dimension(n, q - 1) is the multiplicity
of S^(n-q, q) in H^*(P_n), and is never negative.

Top degree: H^(n-1)(P_n) is sgn (x) Lie_n, so product_dimension(n, q) in
degree n - 1 is the dimension of the degree-(n - q, q) part of the free Lie
superalgebra on two odd generators,
(1/n) sum_{d | gcd(n, q)} mu(d) (-1)^(n + n/d) C(n/d, q/d).
"""

from math import gcd

import pytest

from braidinv.core_combinatorics import binomial, mobius
from braidinv.product_catalog import product_dimension

NS = range(1, 41)


@pytest.mark.parametrize("n", NS)
def test_youngs_rule_multiplicities_are_not_negative(n):
    for q in range(1, n // 2 + 1):
        upper, lower = product_dimension(n, q), product_dimension(n, q - 1)
        degrees = set(upper.as_dict()) | set(lower.as_dict())
        assert all(upper[i] >= lower[i] for i in degrees), (n, q)


@pytest.mark.parametrize("n", NS)
def test_top_degree_is_the_free_lie_superalgebra_count(n):
    for q in range(n // 2 + 1):
        g = gcd(n, q)
        signed = sum(
            mobius(d) * (-1) ** (n + n // d) * binomial(n // d, q // d)
            for d in range(1, g + 1)
            if g % d == 0
        )
        assert signed % n == 0
        assert product_dimension(n, q)[n - 1] == signed // n, (n, q)
