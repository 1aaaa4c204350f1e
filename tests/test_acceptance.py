"""Acceptance suite: every criterion is exact (tolerance zero).

Each test prints one ``PASS criterion N`` line on success; run with
``pytest tests/test_acceptance.py -v -s`` to see them, or rely on the
per-test pass/fail lines of ``pytest -v``.
"""

import random
import time
from fractions import Fraction
from math import gcd

from secgenus.adjoint import (
    DifferenceRequest,
    c2_lower_bound_check,
    check_multiple_bound,
    cubic_params,
    jump_rhs,
    difference_lhs,
    difference_rhs,
    second_jump_expression,
    multiple_lower_bound,
)
from secgenus.genus import additivity_residual, g1_closed, g2_adjoint_closed, g_i
from secgenus.hrr import chi_multi, h0_certified
from secgenus.semigroup import closure, coin_solve, guaranteed_threshold
from secgenus.suites import fourfold_entries, get_catalog
from secgenus.variety import DivisorClass, intersection_number

SEED = 7


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_i1_exactness():
    catalog = get_catalog()
    entries = fourfold_entries()
    assert [v.name for v in entries] == [
        "P4", "P1xP3", "P2xP2", "Q4", "X3", "X4", "X5", "X6", "X7", "A4",
    ]
    p4 = catalog["P4"]
    anchor = DifferenceRequest.build(p4, [p4.divisor("6H")], p4.divisor("1H"))
    assert g_i(p4, 2, [p4.divisor("6H"), p4.divisor("1H")]) == 10
    assert difference_rhs(anchor) == 10 == difference_lhs(anchor)

    start = time.monotonic()
    rng = random.Random(SEED)
    checked = 0
    for v in entries:
        g = len(v.generators)
        for _ in range(25):
            m = rng.randint(1, 3)
            bigs = [DivisorClass(tuple(rng.randint(1, 3) for _ in range(g))) for _ in range(m)]
            nef = DivisorClass(tuple(rng.randint(0, 2) for _ in range(g)))
            req = DifferenceRequest.build(v, bigs, nef)
            assert difference_rhs(req) == difference_lhs(req), (v.name, bigs, nef)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 250
    assert elapsed < 10.0, f"identity suite took {elapsed:.2f}s"
    _ok(1, f"difference formula exact on anchor + {checked} draws in {elapsed:.2f}s")


def test_criterion_02_eq_specialization():
    x6 = get_catalog()["X6"]
    h = x6.divisor("1H")
    counts = {m: h0_certified(x6, m * h)[0] for m in range(1, 7)}
    assert counts[1] == 6 and counts[2] == 21
    assert jump_rhs(x6, h, 2) == 15 == counts[2] - counts[1]  # 5 + 10
    for m in range(2, 7):
        assert jump_rhs(x6, h, m) == counts[m] - counts[m - 1]
    _ok(2, "consecutive-multiple genus specialisation matches section counts, m = 2..6")


def test_criterion_03_recursion_bound():
    assert [multiple_lower_bound(m) for m in (2, 3, 4)] == [1, 5, 18]
    catalog = get_catalog()
    for name in ("X6", "A4"):
        v = catalog[name]
        report = check_multiple_bound(v, v.polarization, 10)
        assert report.passed and not report.abstentions, report.to_table()
        names = {c.name for c in report.checks}
        assert all(f"h0-bound[m={m}]" in names for m in range(2, 11))
        assert all(f"recursion[m={t}]" in names for t in range(3, 11))
    x6_rows = {
        c.name: (c.actual, c.expected)
        for c in check_multiple_bound(catalog["X6"], catalog["X6"].polarization, 4).checks
    }
    assert x6_rows["recursion[m=3]"] == ("20", ">= 4")
    assert x6_rows["recursion[m=4]"] == ("35", ">= 9")
    _ok(3, "h0 lower bound and recursion hold on X6 and A4 for m = 2..10")


def test_criterion_04_second_multiple_expression():
    catalog = get_catalog()
    expected = {"X6": Fraction(111, 32), "A4": Fraction(111, 8)}
    for name, value in expected.items():
        v = catalog[name]
        expr = second_jump_expression(v, v.polarization)
        assert expr == value
        assert expr >= Fraction(111, 192)
        kl = v.canonical + v.polarization
        assert h0_certified(v, 2 * kl)[0] - h0_certified(v, kl)[0] >= 1
    _ok(4, "second-multiple expression is 111/32 and 111/8, above 111/192, jumps >= 1")


def test_criterion_05_genus_ground_truths():
    catalog = get_catalog()
    x6 = catalog["X6"]
    h = x6.divisor("1H")
    assert g_i(x6, 1, [h, h, h]) == 10
    assert g_i(x6, 3, [h]) == 5
    assert g_i(x6, 2, [h, h]) == 10
    assert g_i(x6, 4, []) == 1
    rng = random.Random(SEED)
    entries = fourfold_entries()
    for k in range(50):
        v = entries[rng.randrange(len(entries))]
        g = len(v.generators)
        bundles = [DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g))) for _ in range(4)]
        assert g_i(v, 0, bundles) == intersection_number(v, bundles)
    _ok(5, "genus ground truths on X6 and g_0 = degree on 50 draws")


def test_criterion_06_additivity_and_closed_forms():
    entries = fourfold_entries()
    rng = random.Random(SEED)
    for k in range(100):
        v = entries[rng.randrange(len(entries))]
        g = len(v.generators)
        i = rng.randint(1, 3)
        a = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
        b = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
        rest = [DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g))) for _ in range(3 - i)]
        assert additivity_residual(v, i, a, b, rest) == 0, (v.name, i, a, b, rest)
    for v in entries:
        g = len(v.generators)
        for _ in range(10):
            a = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            b = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            c = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            assert g1_closed(v, a, b, c) == g_i(v, 1, [a, b, c])
            ell = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            kl = v.canonical + ell
            assert g2_adjoint_closed(v, ell) == g_i(v, 2, [kl, kl])
    _ok(6, "additivity residual zero on 100 draws; closed forms match the definition")


def test_criterion_07_integrality_and_parity():
    entries = fourfold_entries()
    rng = random.Random(SEED)
    for v in entries:
        g = len(v.generators)
        for _ in range(6):
            arity = rng.randint(1, 4)
            bundles = [
                DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g))) for _ in range(arity)
            ]
            poly = chi_multi(v, bundles)  # raises on non-integer coefficients
            assert poly.is_integral()
        for _ in range(10):
            ample = DivisorClass(tuple(rng.randint(1, 3) for _ in range(g)))
            value = intersection_number(v, [v.canonical + 3 * ample, ample, ample, ample])
            assert value % 2 == 0, (v.name, ample)
    _ok(7, "every expansion coefficient is an integer; (K+3L)L^3 even on ample draws")


def test_criterion_08_c2_inequality():
    entries = fourfold_entries()
    rng = random.Random(SEED)
    checked = 0
    for v in entries:
        g = len(v.generators)
        for _ in range(25):
            ell = DivisorClass(tuple(rng.randint(1, 6) for _ in range(g)))
            if not v.is_nef_and_big(v.canonical + ell):
                continue
            a1 = DivisorClass(tuple(rng.randint(0, 3) for _ in range(g)))
            a2 = DivisorClass(tuple(rng.randint(0, 3) for _ in range(g)))
            result = c2_lower_bound_check(v, ell, a1, a2)
            assert result.holds_main, (v.name, ell, a1, a2, result)
            checked += 1
    assert checked > 50
    _ok(8, f"c2 lower bound holds on {checked} certified draws (exact rationals)")


def test_criterion_09_semigroup_suite():
    for p in range(1, 13):
        for q in range(1, 13):
            if gcd(p, q) != 1:
                continue
            for l in range((p - 1) * (q - 1), 201):
                i, j = coin_solve(p, q, l)
                assert i >= 0 and j >= 0 and p * i + q * j == l
    assert guaranteed_threshold({4, 5}) == 12
    for p in range(1, 6):
        assert 120 in closure({p}, 120)
    _ok(9, "coin solver matches brute force; threshold({4,5}) = 12; 120 in every closure")


def test_criterion_10_cubic_roundtrip():
    params = cubic_params((-2, 4, -8, 6), 0)
    assert (params.d, params.a, params.b) == (1, 0, 2)
    assert params.g1 == 9
    assert params.g2 == 3  # both expressions agree inside cubic_params
    _ok(10, "cubic parametrisation solves to (1, 0, 2) with g_1 = 9, g_2 = 3")
