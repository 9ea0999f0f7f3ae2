"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py` (the suite passes -s through
pyproject, so the ACCEPTANCE lines appear in the output).
"""

import time

from braidinv.character_oracle import GroupSpec, _block_polynomials, oracle_dimension
from braidinv.cycle_invariants import (
    cycle_block_key,
    dual_cycle,
    enumerate_Pi,
    enumerate_selfdual,
    selfdual_count_closed_form,
)
from braidinv.errors import InternalConsistencyError
from braidinv.extension_catalog import (
    count_EP_closed_form,
    count_KP_closed_form,
    enumerate_EP,
    enumerate_KP,
    ext_dimension,
)
from braidinv.product_catalog import enumerate_generators, product_dimension
from oracle_listing import listed_block, listed_dimension, zeta_failures
from test_character_oracle import LISTED_BLOCKS, _padded
from test_extension_catalog import sigma_dual_label


def _finish(num, name, ok):
    print("ACCEPTANCE %d %s: %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (num, name)


def test_criterion_1_n2_exact():
    ok = False
    try:
        t0 = time.monotonic()
        total, table = ext_dimension(2)
        ok = (
            product_dimension(2, 1).as_dict() == {0: 1, 1: 1}
            and (total, table.as_dict()) == (2, {0: 1, 1: 1})
            and len(enumerate_EP(2)) == 2
            and len(enumerate_KP(2)) == 0
            and count_EP_closed_form(2) == 2
            and count_KP_closed_form(2) == 0
            and time.monotonic() - t0 < 1.0
        )
    finally:
        _finish(1, "n2-exact", ok)


def test_criterion_2_ext_vs_oracle():
    ok = False
    try:
        t0 = time.monotonic()
        ok = True
        for n in (2, 4, 6, 8):
            total, table = ext_dimension(n)
            oracle = oracle_dimension(n, GroupSpec.extension(n // 2))
            ok = ok and oracle.as_dict() == table.as_dict() and oracle.total == total
        ok = ok and time.monotonic() - t0 < 300.0
        oracle10 = oracle_dimension(10, GroupSpec.extension(5))
        ok = ok and oracle10.as_dict() == ext_dimension(10)[1].as_dict()
    finally:
        _finish(2, "ext-vs-oracle", ok)


def test_criterion_3_product_vs_oracle():
    ok = False
    try:
        ok = True
        for n in range(2, 9):
            for q in range(n // 2 + 1):
                oracle = oracle_dimension(n, GroupSpec.product(n, q))
                ok = ok and oracle.as_dict() == product_dimension(n, q).as_dict()
    finally:
        _finish(3, "product-vs-oracle", ok)


def test_criterion_4_pairing_counts():
    ok = False
    try:
        ok = True
        for n in (2, 4, 6, 8, 10):
            ok = ok and count_EP_closed_form(n) == len(enumerate_EP(n))
            ok = ok and count_KP_closed_form(n) == len(enumerate_KP(n))
    finally:
        _finish(4, "pairing-counts", ok)


def test_criterion_5_fixed_point_set():
    ok = False
    try:
        ok = True
        for n in (2, 4, 6, 8, 10):
            fixed = {
                g for g in enumerate_generators(n, n // 2) if sigma_dual_label(g) == g
            }
            ok = ok and set(enumerate_EP(n)) == fixed
    finally:
        _finish(5, "fixed-point-set", ok)


def test_criterion_6_selfdual_closed_form():
    ok = False
    try:
        t0 = time.monotonic()
        spot = {1: 1, 6: 5, 15: 1091}
        ok = True
        for d in range(1, 19):
            enum = len(enumerate_selfdual(d))
            ok = ok and enum == selfdual_count_closed_form(d)
            if d in spot:
                ok = ok and enum == spot[d]
        ok = ok and time.monotonic() - t0 < 60.0
    finally:
        _finish(6, "selfdual-closed-form", ok)


def test_criterion_7_duality_bijection():
    ok = False
    try:
        ok = True
        for lam in range(1, 13):
            for d in range(lam + 1):
                Pi = enumerate_Pi(lam, d)
                duals = [dual_cycle(chi) for chi in Pi]
                ok = ok and all(dual_cycle(m) == c for c, m in zip(Pi, duals))
                ok = ok and sorted(duals, key=cycle_block_key) == list(
                    enumerate_Pi(lam, lam - d)
                )
    finally:
        _finish(7, "duality-bijection", ok)


def test_criterion_8_structural_anchors():
    ok = False
    try:
        ok = True
        for n in range(2, 9):
            for q in range(n // 2 + 1):
                ok = ok and product_dimension(n, q)[0] == 1
            if n % 2 == 0:
                ok = ok and ext_dimension(n)[1][0] == 1
            # each block's orbits must cover its words of every weight
            # (orbit-stabilizer), so each group's cosets cover every class
            for group in GroupSpec.every(n):
                oracle_dimension(n, group)
            ok = ok and product_dimension(n, 0).as_dict() == {0: 1, 1: 1}
    except InternalConsistencyError:
        ok = False
        raise
    finally:
        _finish(8, "structural-anchors", ok)


def test_criterion_9_character_axioms():
    ok = False
    try:
        # the character is multiplicative on every centralizer with n <= 6
        ok = all(zeta_failures(n) == () for n in range(1, 7))
        # every block with vm <= 10 whose stabilizers list in at most 8!
        # elements: each orbit's listed sum must land in {0, |stabilizer|},
        # or listed_block raises, and the listed P and T are the oracle's
        for v, m in LISTED_BLOCKS:
            P, T = _block_polynomials(v, m)
            ok = ok and listed_block(v, m) == (P, _padded(T, v * m))
        ok = ok and len(LISTED_BLOCKS) == 25
        # the whole partition's listed double cosets give the oracle's table
        # for every group with n <= 7, which checks the product over blocks
        for n in range(1, 8):
            for group in GroupSpec.every(n):
                ok = ok and listed_dimension(n, group) == oracle_dimension(n, group)
    except InternalConsistencyError:
        ok = False
        raise
    finally:
        _finish(9, "character-axioms", ok)
