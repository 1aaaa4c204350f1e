import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from secgenus import genus
from secgenus.adjoint import (
    DifferenceRequest,
    c2_lower_bound_check,
    check_multiple_bound,
    cubic_params,
    jump_rhs,
    difference_lhs,
    difference_rhs,
    nonvanishing_report,
    second_jump_expression,
    multiple_lower_bound,
)
from secgenus.errors import AbstainError, InputError
from secgenus.genus import g_i
from secgenus.hrr import h0_certified
from secgenus.variety import DivisorClass, variety_from_json, variety_to_json


def _difference_rhs_reference(req):
    """The genus side as one g_i per term, summed over index tuples."""
    v, bigs, nef = req.variety, req.big_bundles, req.nef_bundle
    n, m = v.dim, len(bigs)
    total = 0
    for s in range(n):
        for combo in combinations(range(m), n - s - 1):
            total += g_i(v, s, [bigs[k] for k in combo] + [nef])
    for s in range(n - 1):
        total -= comb(m - 1, n - s - 2) * v.hodge[s]
    return total


def _jump_rhs_reference(v, ell, m):
    kl = v.canonical + ell
    partner = (m - 2) * v.canonical + (m - 1) * ell
    return g_i(v, 3, [kl]) + g_i(v, 2, [kl, partner]) - v.hodge[2]


def _draw(rng, g, lo, hi):
    return DivisorClass(tuple(rng.randint(lo, hi) for _ in range(g)))


@pytest.fixture
def chi_calls(monkeypatch):
    """Count the chi evaluations the genus code makes: its reads of the compiled chi form."""
    calls = []
    original = genus._horner

    def counted(form, x, i=0):
        calls.append(x)
        return original(form, x, i)

    monkeypatch.setattr(genus, "_horner", counted)  # the recursion inside stays uncounted
    return calls


def test_difference_anchor_p4(p4):
    req = DifferenceRequest.build(p4, [p4.divisor("6H")], p4.divisor("1H"))
    assert difference_rhs(req) == 10
    assert difference_lhs(req) == 10  # h^0(2H) - h^0(H) = 15 - 5


def test_difference_x6(x6):
    h = x6.divisor("1H")
    req = DifferenceRequest.build(x6, [h], h)
    assert difference_rhs(req) == 15
    assert difference_lhs(req) == 15  # 21 - 6


def test_difference_zero_nef_bundle(a4):
    req = DifferenceRequest.build(a4, [a4.divisor("1L")], a4.zero())
    assert difference_rhs(req) == 0
    assert difference_lhs(req) == 0


def test_difference_multiple_bundles(a4, x6):
    ell = a4.divisor("1L")
    req = DifferenceRequest.build(a4, [ell, ell], ell)
    # h^0(3L) - h^0(2L) = 81 - 16
    assert difference_lhs(req) == 65
    assert difference_rhs(req) == 65
    h = x6.divisor("1H")
    req = DifferenceRequest.build(x6, [h, 2 * h, h], 2 * h)
    assert difference_rhs(req) == difference_lhs(req)


def test_difference_certification(x6):
    with pytest.raises(InputError):
        DifferenceRequest.build(x6, [x6.divisor("-1H")], x6.divisor("1H"))
    with pytest.raises(InputError):
        DifferenceRequest.build(x6, [], x6.divisor("1H"))
    with pytest.raises(InputError):
        DifferenceRequest.build(x6, [x6.divisor("1H")], x6.divisor("-1H"))


def test_nonvanishing_report_abstains_without_a_certified_route(x6):
    # no oracle, and H^4 = 0 leaves mH - K not big: no count can be certified
    v = dataclasses.replace(x6, h0_oracle=None, intersection_form={(4,): 0})
    rows = {c.name: (c.passed, c.note) for c in nonvanishing_report(v, v.divisor("1H"), 4).checks}
    for m in (3, 4):
        assert rows[f"nonvanishing[m={m}]"] == (None, "X6 has no exact section-count oracle")


def test_difference_seeded_draws(catalog):
    rng = random.Random(7)
    for name in ("P4", "Q4", "X6", "A4", "P1xP3", "P2xP2"):
        v = catalog[name]
        g = len(v.generators)
        for _ in range(10):
            m = rng.randint(1, 3)
            bigs = [DivisorClass(tuple(rng.randint(1, 3) for _ in range(g))) for _ in range(m)]
            nef = DivisorClass(tuple(rng.randint(0, 2) for _ in range(g)))
            req = DifferenceRequest.build(v, bigs, nef)
            assert difference_rhs(req) == difference_lhs(req)


def test_difference_rhs_matches_per_term_reference(catalog):
    rng = random.Random(2024)
    for name, v in catalog.items():
        if v.dim != 4:
            continue
        g = len(v.generators)
        for m in range(1, 7):
            for _ in range(2):
                bigs = [_draw(rng, g, 1, 3) for _ in range(m)]
                nef = _draw(rng, g, 0, 2)
                req = DifferenceRequest.build(v, bigs, nef)
                assert difference_rhs(req) == _difference_rhs_reference(req), (name, m)


def test_jump_rhs_matches_per_term_reference(catalog):
    rng = random.Random(2025)
    for name, v in catalog.items():
        if v.dim != 4:
            continue
        g = len(v.generators)
        for m in range(2, 8):
            ell = v.polarization if m % 2 else _draw(rng, g, -3, 3)
            assert jump_rhs(v, ell, m) == _jump_rhs_reference(v, ell, m), (name, m)


def test_difference_rhs_chi_evaluation_count(x6, chi_calls):
    h = x6.divisor("1H")
    for m in range(1, 4):
        chi_calls.clear()
        difference_rhs(DifferenceRequest.build(x6, [h] * m, h))
        assert len(chi_calls) == 2 ** (m + 1)
    req = DifferenceRequest.build(x6, [h, 2 * h, 3 * h, h, 2 * h, h], h)
    chi_calls.clear()
    difference_rhs(req)
    table_calls = len(chi_calls)
    chi_calls.clear()
    _difference_rhs_reference(req)
    # sub-lists with at most three of the six big bundles, with and without L
    assert table_calls == 2 * sum(comb(6, t) for t in range(4)) == 84
    assert len(chi_calls) == sum(comb(6, t) * 2 ** (t + 1) for t in range(4)) == 466


def test_jump_rhs_chi_evaluation_count(x6, chi_calls):
    jump_rhs(x6, x6.divisor("1H"), 5)
    assert len(chi_calls) == 4


def test_jump_specialization_x6(x6):
    h = x6.divisor("1H")
    counts = {m: h0_certified(x6, m * h)[0] for m in range(1, 7)}
    assert counts == {1: 6, 2: 21, 3: 56, 4: 126, 5: 252, 6: 461}
    for m in range(2, 7):
        assert jump_rhs(x6, h, m) == counts[m] - counts[m - 1]
    assert jump_rhs(x6, h, 2) == 15  # 5 + 10 - 0


def test_jump_specialization_a4(a4):
    assert jump_rhs(a4, a4.divisor("1L"), 2) == 15  # chi(2L) - chi(L) = 16 - 1


def test_jump_contract(x6, catalog):
    with pytest.raises(InputError):
        jump_rhs(x6, x6.divisor("1H"), 1)
    with pytest.raises(InputError):
        jump_rhs(catalog["P3"], catalog["P3"].divisor("1H"), 2)


def test_multiple_lower_bound_is_the_exact_fraction():
    # the product is always divisible by 12, so floor division is exact
    for m in range(2, 10**4 + 1):
        exact = Fraction((m - 1) * (m - 2) * (m * m + 3 * m + 6), 12) + 1
        assert multiple_lower_bound(m) == exact, m


def test_multiple_lower_bound_values():
    assert [multiple_lower_bound(m) for m in (2, 3, 4)] == [1, 5, 18]
    assert multiple_lower_bound(10) == 817
    with pytest.raises(InputError):
        multiple_lower_bound(1)


def _bound_rows(report):
    """(actual, expected) of every check, keyed by check name."""
    return {c.name: (c.actual, c.expected) for c in report.checks}


def test_check_multiple_bound_x6(x6):
    report = check_multiple_bound(x6, x6.divisor("1H"), 4)
    assert report.passed and not report.abstentions
    rows = _bound_rows(report)
    assert rows["h0-bound[m=4]"] == ("126", ">= 18")
    assert rows["recursion[m=3]"] == ("20", ">= 4")
    assert rows["recursion[m=4]"] == ("35", ">= 9")


def test_check_multiple_bound_a4(a4):
    report = check_multiple_bound(a4, a4.divisor("1L"), 3)
    assert report.passed
    rows = _bound_rows(report)
    assert rows["h0-bound[m=3]"] == ("81", ">= 5")


def test_check_multiple_bound_report_fields(x6):
    report = check_multiple_bound(x6, x6.divisor("1H"), 3)
    assert report.title == "bounds:X6" and report.annotations == []
    assert [c.name for c in report.checks] == ["h0-bound[m=2]", "h0-bound[m=3]", "recursion[m=3]"]
    first, _, recursion = report.checks
    assert first.inputs == {"variety": "X6", "L": "1H", "m": "2"}
    assert first.note == "kawamata-viehweg"  # the certification route
    assert recursion.note == ""


def test_check_multiple_bound_preconditions(p4, x6):
    with pytest.raises(InputError):
        check_multiple_bound(p4, p4.divisor("1H"), 4)  # kappa(X) = -inf
    import dataclasses

    undeclared = dataclasses.replace(x6, kappa_x=None)
    with pytest.raises(AbstainError):
        check_multiple_bound(undeclared, undeclared.divisor("1H"), 4)


def test_second_jump_expression(x6, a4):
    assert second_jump_expression(x6, x6.divisor("1H")) == Fraction(111, 32)
    assert second_jump_expression(a4, a4.divisor("1L")) == Fraction(111, 8)
    for v, ell in ((x6, x6.divisor("1H")), (a4, a4.divisor("1L"))):
        assert second_jump_expression(v, ell) >= Fraction(111, 192)
        kl = v.canonical + ell
        assert h0_certified(v, 2 * kl)[0] - h0_certified(v, kl)[0] >= 1


def test_second_jump_with_positive_canonical(catalog):
    x7 = catalog["X7"]
    h = x7.divisor("1H")
    value = second_jump_expression(x7, h)
    # K = H, K+L = 2H, K+2L = 3H: bracket = (32*9 + 20*3 + 56*2 + 55) H^3,
    # so the expression is 2 * 515 * H^4 / 192 with H^4 = 7
    assert value == Fraction(2 * 515 * 7, 192)
    assert value >= Fraction(111, 192)


def _nonvanishing_counts(report):
    return {
        int(c.inputs["m"]): int(c.actual)
        for c in report.checks
        if c.name.startswith("nonvanishing[")
    }


def test_nonvanishing_x6(x6):
    report = nonvanishing_report(x6, x6.divisor("1H"), 6)
    assert report.passed and report.title == "bounds:X6"
    assert _nonvanishing_counts(report) == {3: 56, 4: 126, 5: 252, 6: 461}
    assert report.annotations[0] == "declared kappa(K+L) = 4; asserting m >= 3"


def test_nonvanishing_p4_shifted(p4):
    # K + L = H after the degree-six twist, declared kappa not present for 6H
    with pytest.raises(AbstainError):
        nonvanishing_report(p4, p4.divisor("6H"), 6)


def test_nonvanishing_kappa_dispatch(catalog):
    x5 = catalog["X5"]
    report = nonvanishing_report(x5, x5.divisor("1H"), 6)
    # kappa(K+L) = 0: every multiple must have a section (h^0(0) = 1)
    assert _nonvanishing_counts(report) == {m: 1 for m in range(1, 7)}
    assert report.passed


def _p1xp3_declaring(p1xp3, kappa):
    # L = 2a+5b gives K + L = 0a+1b, the pull-back of a hyperplane of P3
    data = variety_to_json(p1xp3)
    data["kappa_adjoint"] = {"2a+5b": {"kappa": {"1": kappa}, "fine_type": None}}
    v = variety_from_json(data)
    return v, v.divisor("2a+5b")


def test_nonvanishing_kappa_three_starts_at_the_second_multiple(p1xp3):
    v, ell = _p1xp3_declaring(p1xp3, 3)
    report = nonvanishing_report(v, ell, 5)
    assert [c.name for c in report.checks] == [f"nonvanishing[m={m}]" for m in range(2, 6)]
    assert _nonvanishing_counts(report) == {2: 10, 3: 20, 4: 35, 5: 56}
    assert report.passed  # kappa(X) = -inf: no recursion or second-multiple rows


def test_nonvanishing_kappa_minus_infinity_contradicts_nef(p1xp3):
    v, ell = _p1xp3_declaring(p1xp3, "-inf")
    with pytest.raises(InputError, match="contradicts nef K\\+L"):
        nonvanishing_report(v, ell, 5)


def test_nonvanishing_requires_nef(p4):
    with pytest.raises(InputError):
        nonvanishing_report(p4, p4.divisor("1H"), 4)


def test_c2_lower_bound(x6, a4):
    h = x6.divisor("1H")
    result = c2_lower_bound_check(x6, h, h, h)
    assert result.lhs == 90
    assert result.rhs_main == Fraction(-162, 8)
    assert result.rhs_alt == -16
    assert result.holds_main and result.holds_alt
    ell = a4.divisor("1L")
    result = c2_lower_bound_check(a4, ell, ell, ell)
    assert result.lhs == 0 and result.rhs_main == Fraction(-27 * 24, 8)
    assert result.holds_main


def test_c2_lower_bound_abstains(p4):
    with pytest.raises(AbstainError):
        c2_lower_bound_check(p4, p4.divisor("1H"), p4.divisor("1H"), p4.divisor("1H"))


def test_cubic_params_roundtrip():
    params = cubic_params((-2, 4, -8, 6), 0)
    assert (params.d, params.a, params.b) == (1, 0, 2)
    assert params.g1 == 9 and params.g2 == 3
    assert params.gate_value == 2 and params.gate_holds


def test_cubic_params_t_cubed_minus_t():
    # chi(tH) = t^3 - t = (t-1) t (t+1): coefficients (0, 0, -6, 6)
    params = cubic_params((0, 0, -6, 6), 0)
    assert (params.d, params.a, params.b) == (1, 1, 0)
    assert params.g1 == 7 and params.g2 == -1
    assert params.gate_value == 6 and params.gate_holds


def test_cubic_params_rejects_inconsistent_inputs():
    with pytest.raises(InputError):
        cubic_params((0, 0, 0, 6), 0)  # no (d, a, b) solves all four relations
    with pytest.raises(InputError):
        cubic_params((-2, 4, -8, 0), 0)  # chi_3 = 0 means d = 0
    with pytest.raises(InputError):
        cubic_params((-2, 4, -8, 6), 1)  # nonzero h^1 breaks the g_2 agreement


def test_cubic_params_fractional_d():
    # chi(tH) = (t-1)(t^2+t) scaled by 1/2 is not integer-valued, but the
    # relations are solvable for d = 1/2 with integer binomial coefficients:
    # chi(tH) = (1/2)(t-1)(t^2 + t + 2) = (t^3 + t - 2)/2 has values
    # -1, 0, 4, 14 at t = 0..3 -> coefficients (-1, 1, -3, 3)
    params = cubic_params((-1, 1, -3, 3), 0)
    assert params.d == Fraction(1, 2)
    assert params.a == 1
    assert params.b == 2
    assert params.g1 == 4 and params.g2 == 0
