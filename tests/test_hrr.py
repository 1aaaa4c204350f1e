import dataclasses
import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod

import pytest

from secgenus import hrr
from secgenus.binpoly import coefficients_from_oracle
from secgenus.errors import AbstainError, InputError, ModelError
from secgenus.genus import g1_closed
from secgenus.hrr import chi_divisor, chi_multi, h0_certified
from secgenus.suites import suite_integrality
from secgenus.variety import (
    _TODD,
    CompiledChi,
    DivisorClass,
    VarietyData,
    _horner,
    _monomials,
    _nest,
    c2_pair,
    catalog_build,
    h0_exact,
    intersection_number,
    validate,
    variety_from_json,
)


def reference_chi(v, d: DivisorClass) -> Fraction:
    """The Todd closed forms evaluated directly through the pairing functions.

    Independent of the compiled polynomial; a Fraction, so a model whose
    chi is not an integer shows it instead of raising.
    """
    n, k = v.dim, v.canonical
    c1 = -k
    if n == 1:
        return v.chi_o + intersection_number(v, [d])
    if n == 2:
        dd = intersection_number(v, [d, d])
        dk = intersection_number(v, [d, k])
        return v.chi_o + Fraction(dd - dk, 2)
    if n == 3:
        scaled = (
            2 * intersection_number(v, [d, d, d])
            + 3 * intersection_number(v, [c1, d, d])
            + intersection_number(v, [c1, c1, d])
            + c2_pair(v, [d])
        )
        return v.chi_o + Fraction(scaled, 12)
    scaled = (
        intersection_number(v, [d, d, d, d])
        + 2 * intersection_number(v, [c1, d, d, d])
        + intersection_number(v, [c1, c1, d, d])
        + c2_pair(v, [d, d])
        + c2_pair(v, [c1, d])
    )
    return v.chi_o + Fraction(scaled, 24)


def test_chi_p4_twists(p4):
    h = p4.divisor("1H")
    # chi(tH) = (t^4 + 10t^3 + 35t^2 + 50t + 24)/24
    for t, want in [(0, 1), (1, 5), (2, 15), (3, 35), (-1, 0), (-5, 1), (-6, 5)]:
        assert chi_divisor(p4, t * h) == want


def test_chi_x6(x6):
    h = x6.divisor("1H")
    assert chi_divisor(x6, h) == 6
    assert chi_divisor(x6, x6.zero()) == 2
    assert chi_divisor(x6, 2 * h) == 21
    assert chi_divisor(x6, 3 * h) == 56


def test_chi_products(p1xp3, catalog):
    # chi on products of projective spaces equals the monomial-count product
    # for ample twists (all higher cohomology vanishes there)
    d = p1xp3.divisor("1a+1b")
    assert chi_divisor(p1xp3, d) == 8
    p2xp2 = catalog["P2xP2"]
    assert chi_divisor(p2xp2, p2xp2.divisor("1a+1b")) == 9
    assert chi_divisor(p2xp2, p2xp2.divisor("2a+1b")) == 18


def test_chi_lower_dimensions(catalog):
    for name, want in (("P1", 2), ("P2", 3), ("P3", 4)):
        v = catalog[name]
        assert chi_divisor(v, v.divisor("1H")) == want
        assert chi_divisor(v, v.zero()) == 1


def test_chi_multi_expansions(p4, x6, a4):
    assert {k: int(v) for k, v in chi_multi(p4, [p4.divisor("1H")]).coeffs.items()} == {
        (p,): 1 for p in range(5)
    }
    assert {k: int(v) for k, v in chi_multi(x6, [x6.divisor("1H")]).coeffs.items()} == {
        (0,): 2,
        (1,): -4,
        (2,): 11,
        (3,): -9,
        (4,): 6,
    }
    # chi(tL) = t^4 on the principally polarized abelian entry
    poly = chi_multi(a4, [a4.divisor("1L")])
    for t in range(-3, 4):
        assert poly.eval((t,)) == t**4


def test_chi_multi_reconstruction(catalog):
    rng = random.Random(5)
    for name in ("X6", "P1xP3", "A4"):
        v = catalog[name]
        g = len(v.generators)
        for k in (1, 2):
            bundles = [
                DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g))) for _ in range(k)
            ]
            poly = chi_multi(v, bundles)
            for point in product(range(-2, 3), repeat=k):
                combined = v.zero()
                for t, b in zip(point, bundles):
                    combined = combined + t * b
                assert poly.eval(point) == chi_divisor(v, combined)


def test_chi_multi_arity_bounds(x6):
    with pytest.raises(InputError):
        chi_multi(x6, [])
    with pytest.raises(InputError):
        chi_multi(x6, [x6.divisor("1H")] * 5)


def test_chi_multi_reads_chi_at_the_simplex_points_only(catalog, monkeypatch):
    # t -> chi(sum t_i D_i) has total degree <= n, so C(k + n, n) values fix its
    # expansion: 70 at k = n = 4, not the (n + 1)^k = 625 of the grid {-n..0}^k
    calls = []

    def counted(form, x, i=0):
        calls.append(x)
        return _horner(form, x, i)

    monkeypatch.setattr(hrr, "_horner", counted)
    for name in ("X6", "P2xP2", "P1xP3"):
        v = catalog[name]
        for k in range(1, v.dim + 1):
            calls.clear()
            chi_multi(v, [v.polarization] * k)
            assert len(calls) == comb(k + v.dim, v.dim), (name, k)


def test_serre_duality_symmetry(catalog):
    rng = random.Random(9)
    for v in catalog.values():
        g = len(v.generators)
        for _ in range(50):
            d = DivisorClass(tuple(rng.randint(-3, 3) for _ in range(g)))
            assert chi_divisor(v, v.canonical - d) == (-1) ** v.dim * chi_divisor(v, d)


def test_chi_matches_oracle_in_vanishing_range(catalog):
    for v in catalog.values():
        if v.h0_oracle is None or v.polarization is None:
            continue
        for m in range(1, 5):
            d = m * v.polarization
            if not v.is_nef_and_big(d - v.canonical):
                continue
            assert chi_divisor(v, d) == h0_exact(v, d), (v.name, m)


def test_h0_certified_counts_by_vanishing(p4, x6):
    assert h0_certified(p4, p4.divisor("2H")) == (15, "kawamata-viehweg")
    assert h0_certified(x6, x6.divisor("3H")) == (56, "kawamata-viehweg")
    # -1H - K_X is not nef and big: the vanishing rule does not certify it
    assert h0_certified(x6, x6.divisor("-1H"))[1] == "family-oracle"
    bare = dataclasses.replace(x6, h0_oracle=None)
    with pytest.raises(AbstainError):
        h0_certified(bare, bare.divisor("-1H"))
    # chi(O) = 2 - 10 makes chi(1H) = -4 where the vanishing rule holds
    broken = dataclasses.replace(x6, hodge=(1, 0, 0, 10, 1))
    with pytest.raises(ModelError, match=r"^certified h\^0\(1H\) on X6 came out negative \(-4\)$"):
        h0_certified(broken, broken.divisor("1H"))


def test_h0_certified_falls_back_to_oracle(a4):
    # h^0(O) = 1 but chi(O) = 0; the vanishing rule does not apply at zero
    count, route = h0_certified(a4, a4.zero())
    assert count == 1 and route == "family-oracle"
    count, route = h0_certified(a4, a4.divisor("1L"))
    assert count == 1 and route == "kawamata-viehweg"


def test_abelian_scaled_polarization():
    big = catalog_build("abelian", 48)
    ell = big.divisor("1L")
    assert intersection_number(big, [ell] * 4) == 48
    assert chi_divisor(big, 2 * ell) == 32
    assert h0_exact(big, 2 * ell) == 32


def _draw(rng, g, lo, hi):
    return DivisorClass(tuple(rng.randint(lo, hi) for _ in range(g)))


def test_compiled_chi_matches_reference(catalog):
    assert len(catalog) == 13
    rng = random.Random(2024)
    for v in catalog.values():
        g = len(v.generators)
        for _ in range(40):
            d = _draw(rng, g, -6, 6)
            assert chi_divisor(v, d) == reference_chi(v, d), (v.name, d)
        assert chi_divisor(v, v.zero()) == v.chi_o


def test_chi_multi_matches_reference_interpolation(catalog):
    # the compiled chi's expansion against the same interpolation of the reference
    # formula, and against that formula at points t in {1, 2}^k off the grid {-n..0}^k
    rng = random.Random(4634)
    for v in catalog.values():
        g = len(v.generators)
        for arity in range(1, v.dim + 1):
            bundles = [_draw(rng, g, -2, 2) for _ in range(arity)]

            def reference(*point):
                combined = v.zero()
                for t, bundle in zip(point, bundles):
                    combined = combined + t * bundle
                return reference_chi(v, combined)

            poly = chi_multi(v, bundles)
            expected = coefficients_from_oracle(reference, arity, v.dim)
            assert poly.coeffs == expected.coeffs, (v.name, bundles)
            for point in product((1, 2), repeat=arity):
                assert poly.eval(point) == reference(*point), (v.name, bundles, point)


def test_wrong_length_class_rejected(catalog, x6):
    p2xp2 = catalog["P2xP2"]
    for v, d in ((x6, DivisorClass((1, 1))), (p2xp2, DivisorClass((1,))), (x6, DivisorClass(()))):
        with pytest.raises(InputError, match="coordinates"):
            chi_divisor(v, d)
        with pytest.raises(InputError, match="coordinates"):
            chi_multi(v, [v.polarization, d][: v.dim])


def test_missing_monomial_names_it(catalog):
    p2xp2 = catalog["P2xP2"]
    form = {exps: val for exps, val in p2xp2.intersection_form.items() if exps != (4, 0)}
    broken = dataclasses.replace(p2xp2, intersection_form=form)
    with pytest.raises(ModelError, match=r"missing monomial \(4, 0\)"):
        chi_divisor(broken, broken.divisor("1a+1b"))
    with pytest.raises(ModelError, match=r"missing monomial \(4, 0\)"):
        chi_multi(broken, [broken.divisor("1b")])
    report = validate(broken)
    assert not report.passed
    failed = {c.name: c.actual for c in report.checks if c.passed is False}
    assert failed == {"intersection form complete": "missing [(4, 0)]"}


def test_non_integer_valued_chi_fails_integrality(x6):
    # c2.H^2 = 91 instead of 90: 24 chi(tH) = 48 + 6t^4 + 91t^2 is odd at t = 1
    planted = dataclasses.replace(x6, c2_pairings={(2,): 91})
    with pytest.raises(ModelError, match="non-integer coefficients"):
        chi_multi(planted, [planted.polarization])
    # the suite's one row is validate's row, with the model's name
    (row,) = suite_integrality([planted]).checks
    checks = {c.name: c for c in validate(planted).checks}
    expected = checks["chi expansion integral"]
    assert row.name == "X6 chi expansion integral" and row.passed is False
    assert (row.expected, row.actual) == (expected.expected, expected.actual) == (
        "integer coefficients",
        "chi(1H) = 145/24",
    )


def test_validate_reads_chi_on_the_lattice_without_a_polarization(x6):
    # the integrality row needs no L, and the section-count rows show chi exactly:
    # 24 chi(tH) = 48 + 6t^4 + 91t^2 at t = 1, 2, 3
    planted = dataclasses.replace(x6, c2_pairings={(2,): 91}, polarization=None)
    failed = {c.name: (c.expected, c.actual) for c in validate(planted).checks if c.passed is False}
    assert failed == {
        "chi(1*(1H)) matches section count": ("6", "145/24"),
        "chi(2*(1H)) matches section count": ("21", "127/6"),
        "chi(3*(1H)) matches section count": ("56", "451/8"),
        "chi expansion integral": ("integer coefficients", "chi(1H) = 145/24"),
    }


def test_non_integer_coefficients_print_in_multi_index_order(x6):
    planted = dataclasses.replace(x6, c2_pairings={(2,): 91})
    bundles = [planted.divisor(text) for text in ("1H", "2H", "-1H")]
    with pytest.raises(ModelError) as raised:
        chi_multi(planted, bundles)
    entry = r"\(([0-9, ]+)\): Fraction\((-?[0-9]+), ([0-9]+)\)"
    shown = {
        tuple(int(p) for p in index.split(", ")): Fraction(int(num), int(den))
        for index, num, den in re.findall(entry, str(raised.value))
    }
    assert list(shown) == sorted(shown)

    def reference(*point):
        return reference_chi(planted, sum((t * b for t, b in zip(point, bundles)), planted.zero()))

    assert shown == coefficients_from_oracle(reference, 3, 4).coeffs


def test_compiled_chi_is_a_nested_horner_form(p4, catalog):
    # 24 chi(tH) = t^4 + 10t^3 + 35t^2 + 50t + 24 on P4
    assert p4.chi_polynomial.denom == 24
    assert p4.chi_polynomial.horner == (24, 50, 35, 10, 1)
    # 24 chi(xa + yb) = 6 (x^2 + 3x + 2)(y^2 + 3y + 2) on P2xP2: entry a is the
    # coefficient of x^a, a form in y; a^3 = 0 leaves no entry past x^2
    p2xp2 = catalog["P2xP2"]
    assert p2xp2.chi_polynomial.horner == ((24, 36, 12), (36, 54, 18), (12, 18, 6))


def _monomial_key(exps, names):
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def _p1xp1xp2(drop=None, oracle=None, c2_shift=0):
    """P1 x P1 x P2 with hyperplane classes a, b, c: a^2 = b^2 = c^3 = 0, a b c^2 = 1.

    ``c2_shift`` is added to the pairing of c_2 with a b.
    """
    names = ("a", "b", "c")
    quartics = [e for e in product(range(5), repeat=3) if sum(e) == 4]
    # c_2 = 4ab + 6ac + 6bc + 3c^2, from c(X) = (1 + 2a)(1 + 2b)(1 + 3c + 3c^2)
    c2 = {"a^2": 0, "a b": 3 + c2_shift, "a c": 6, "b^2": 0, "b c": 6, "c^2": 4}
    return variety_from_json(
        {
            "name": "P1xP1xP2",
            "dim": 4,
            "generators": list(names),
            "intersections": {
                _monomial_key(e, names): int(e == (1, 1, 2)) for e in quartics if e != drop
            },
            "canonical": [-2, -2, -3],
            "c2_pairings": c2,
            "hodge": [1, 0, 0, 0, 0],
            "nef_cone": "orthant",
            "oracle": oracle,
            "polarization": [1, 1, 1],
        }
    )


def test_product_builder_matches_hand_written_p1xp1xp2():
    # the hand-written tables check the builder's c_2 rule on three factors
    built, hand = catalog_build("p1xp1xp2"), _p1xp1xp2()
    assert built.name == hand.name and built.h0_oracle == "p1xp1xp2"
    for field in ("dim", "intersection_form", "canonical", "c2_pairings", "hodge", "polarization"):
        assert getattr(built, field) == getattr(hand, field), field


def test_product_oracle_can_fail_a_model():
    def oracle_rows(report):
        return [c.passed for c in report.checks if c.name.endswith("matches section count")]

    report = validate(_p1xp1xp2(oracle="p1xp1xp2"))
    assert report.passed and oracle_rows(report) == [True] * 3
    # shifting c_2 . ab by 24 keeps chi integral, so only the oracle sees it
    shifted = validate(_p1xp1xp2(c2_shift=24))
    assert shifted.passed and oracle_rows(shifted) == []
    shifted = validate(_p1xp1xp2(oracle="p1xp1xp2", c2_shift=24))
    assert oracle_rows(shifted) == [False] * 3
    assert [c.name for c in shifted.checks if not c.passed] == [
        f"chi({m}*(1a+1b+1c)) matches section count" for m in (1, 2, 3)
    ]


def test_three_generator_chi_matches_reference():
    v = _p1xp1xp2()
    assert validate(v).passed
    rng = random.Random(33)
    for _ in range(60):
        d = _draw(rng, 3, -5, 5)
        x, y, z = d.coeffs
        value = chi_divisor(v, d)
        assert value == reference_chi(v, d), d
        # chi(O(x, y, z)) = (x + 1)(y + 1)(z + 1)(z + 2)/2, independent of the tables
        assert value == (x + 1) * (y + 1) * (z + 1) * (z + 2) // 2, d


def test_three_generator_chi_multi_matches_reference_interpolation():
    # as test_chi_multi_matches_reference_interpolation, on three generators
    v = _p1xp1xp2()
    rng = random.Random(34)
    for arity in range(1, 5):
        for _ in range(2):
            bundles = [_draw(rng, 3, -2, 2) for _ in range(arity)]

            def reference(*point):
                combined = v.zero()
                for t, bundle in zip(point, bundles):
                    combined = combined + t * bundle
                return reference_chi(v, combined)

            poly = chi_multi(v, bundles)
            expected = coefficients_from_oracle(reference, arity, v.dim)
            assert poly.coeffs == expected.coeffs, bundles
            for point in product((1, 2), repeat=arity):
                assert poly.eval(point) == reference(*point), (bundles, point)


def test_three_generator_missing_monomial_message():
    broken = _p1xp1xp2(drop=(1, 1, 2))
    message = "P1xP1xP2 intersection table is missing monomial (1, 1, 2)"
    with pytest.raises(ModelError) as raised:
        chi_divisor(broken, broken.divisor("1a+1b+1c"))
    assert str(raised.value) == message
    with pytest.raises(ModelError) as raised:
        chi_multi(broken, [broken.divisor("1c"), broken.divisor("1a")])
    assert str(raised.value) == message


def reference_compile_chi(v) -> CompiledChi:
    """``chi_polynomial`` built through the pairing functions, on [c_1] * j + generator lists."""
    g = len(v.generators)
    denom, todd = _TODD[v.dim]
    c1 = -v.canonical
    units = [v.generator(name) for name in v.generators]
    terms = {(0,) * g: denom * v.chi_o}
    for weight, with_c2, j in todd:
        pair = c2_pair if with_c2 else intersection_number
        degree = v.dim - 2 * with_c2 - j
        for combo in combinations_with_replacement(range(g), degree):
            exps = tuple(combo.count(i) for i in range(g))
            multinomial = factorial(degree) // prod(map(factorial, exps))
            value = weight * multinomial * pair(v, [c1] * j + [units[i] for i in combo])
            terms[exps] = terms.get(exps, 0) + value
    return CompiledChi(denom, _nest(terms, g))


def _without(v, dropped):
    """v with the (table field, monomial) pairs in ``dropped`` left out of its tables."""
    tables = {}
    for field in ("intersection_form", "c2_pairings"):
        gone = {key for f, key in dropped if f == field}
        tables[field] = {k: x for k, x in getattr(v, field).items() if k not in gone}
    return dataclasses.replace(v, **tables)


def test_top_form_matches_intersection_number(catalog):
    # D^n by Horner's rule on the compiled form equals the generic expansion,
    # over classes with negative and zero coordinates
    for v in [*catalog.values(), _p1xp1xp2()]:
        for coeffs in product(range(-2, 3), repeat=len(v.generators)):
            d = DivisorClass(coeffs)
            assert _horner(v.top_form, coeffs) == intersection_number(v, [d] * v.dim), (v.name, d)


def _genus_models(catalog):
    """Catalog entries, P1xP1xP2, P1xP2 and seeded random integer models on their shapes."""
    rng = random.Random(14)
    models = [*catalog.values(), _p1xp1xp2(), catalog_build("p1xp2")]
    for v in list(models):
        g = len(v.generators)
        for _ in range(3):
            models.append(
                dataclasses.replace(
                    v,
                    intersection_form={e: rng.randint(-5, 5) for e in _monomials(g, v.dim)},
                    canonical=DivisorClass(tuple(rng.randint(-4, 4) for _ in range(g))),
                )
            )
    return models


def test_g1_closed_at_equal_classes_matches_trilinear_expansion(catalog):
    # g_1(A, A, A) must agree with 1 + (K+A+A+A)AAA / 2 and raise the same
    # parity violation when that product is odd
    outcomes = set()
    for v in _genus_models(catalog):
        if v.dim != 4:
            continue
        for coeffs in product(range(-2, 3), repeat=len(v.generators)):
            a = DivisorClass(coeffs)
            value = intersection_number(v, [v.canonical + a + a + a, a, a, a])
            outcomes.add(value % 2)
            if value % 2:
                with pytest.raises(ModelError) as raised:
                    g1_closed(v, a, a, a)
                assert str(raised.value) == (
                    f"parity violation on {v.name}: (K+A+B+C)ABC = {value} is odd"
                )
            else:
                assert g1_closed(v, a, a, a) == 1 + value // 2, (v.name, a)
    assert outcomes == {0, 1}
    x6 = catalog["X6"]
    wrong = DivisorClass((1, 1))
    with pytest.raises(InputError, match="different generator lists"):
        g1_closed(x6, wrong, wrong, wrong)


def test_g1_closed_at_equal_classes_raises_only_where_its_product_reads_a_gap(catalog):
    # g_1(A, A, A) reads the table through intersection_number, as g_1(A, B, C) does:
    # it raises that product's error where the product reads the missing monomial,
    # and elsewhere gives the complete model's value
    outcomes = set()
    for v in [*catalog.values(), _p1xp1xp2()]:
        if v.dim != 4:
            continue
        for key in v.intersection_form:
            broken = _without(v, [("intersection_form", key)])
            for coeffs in product(range(-1, 2), repeat=len(v.generators)):
                a = DivisorClass(coeffs)
                try:
                    intersection_number(broken, [broken.canonical + 3 * a, a, a, a])
                except ModelError as gap:
                    with pytest.raises(ModelError) as raised:
                        g1_closed(broken, a, a, a)
                    assert str(raised.value) == str(gap), (v.name, key, coeffs)
                    outcomes.add("raised")
                else:
                    assert g1_closed(broken, a, a, a) == g1_closed(v, a, a, a), (v.name, key)
                    outcomes.add("value")
    assert outcomes == {"raised", "value"}


def test_nef_and_big_raises_on_any_missing_intersection_monomial(catalog):
    # the D^n form reads the whole table, so every nef class hits the gap,
    # not only the classes whose support touches it
    for v in [*catalog.values(), _p1xp1xp2()]:
        for key in v.intersection_form:
            broken = _without(v, [("intersection_form", key)])
            assert not broken.is_nef_and_big(-broken.polarization)  # not nef: no form needed
            for d in (broken.polarization, broken.zero()):
                with pytest.raises(ModelError) as raised:
                    broken.is_nef_and_big(d)
                assert str(raised.value) == f"{v.name} intersection table is missing monomial {key}"


def test_top_form_reads_only_the_intersection_table(catalog):
    # D^n has no c_2 term: a gap in the c_2 table leaves the form and the
    # nef-and-big test as on the complete model, while chi (from dimension 3) raises
    for v in catalog.values():
        for key in v.c2_pairings:
            broken = _without(v, [("c2_pairings", key)])
            assert broken.top_form == v.top_form, (v.name, key)
            assert broken.is_nef_and_big(broken.polarization), (v.name, key)
            if v.dim < 3:
                assert broken.chi_polynomial == v.chi_polynomial, (v.name, key)
                continue
            with pytest.raises(ModelError) as raised:
                chi_divisor(broken, broken.polarization)
            assert str(raised.value) == f"{v.name} c2 table is missing monomial {key}"


def test_compile_chi_matches_pairing_reference(catalog):
    # every monomial lookup the reference makes, chi_polynomial makes in the same
    # order: equal forms, and the same error text for one or two missing monomials
    raised = 0
    for v in [*catalog.values(), _p1xp1xp2()]:
        assert v.chi_polynomial == reference_compile_chi(v), v.name
        keys = [(f, key) for f in ("intersection_form", "c2_pairings") for key in getattr(v, f)]
        for dropped in [*combinations(keys, 1), *combinations(keys, 2)]:
            broken = _without(v, dropped)
            try:
                want = reference_compile_chi(broken)
            except ModelError as exc:
                with pytest.raises(ModelError) as got:
                    chi_divisor(broken, broken.polarization)
                assert str(got.value) == str(exc), (v.name, dropped)
                raised += 1
            else:
                assert broken.chi_polynomial == want, (v.name, dropped)
    assert raised > 300


def test_compile_chi_matches_pairing_reference_on_random_tables():
    # no catalog entry has a c_1 that vanishes on some generators but not all
    rng = random.Random(10)
    partial = 0
    for _ in range(300):
        dim, g = rng.randint(1, 4), rng.randint(1, 3)
        c1 = tuple(rng.choice((0, rng.randint(-4, 4))) for _ in range(g))
        partial += 0 < sum(map(bool, c1)) < g
        v = VarietyData(
            name="random",
            dim=dim,
            generators=("a", "b", "c")[:g],
            intersection_form={e: rng.randint(-9, 9) for e in _monomials(g, dim)},
            canonical=-DivisorClass(c1),
            c2_pairings={e: rng.randint(-9, 9) for e in _monomials(g, dim - 2)} if dim > 1 else {},
            hodge=(1, *(rng.randint(0, 5) for _ in range(dim))),
        )
        assert v.chi_polynomial == reference_compile_chi(v), (dim, c1)
    assert partial > 50


def test_h0_certified_takes_kawamata_viehweg_exactly_where_d_minus_k_is_nef_and_big(catalog):
    for v in catalog.values():
        bare = dataclasses.replace(v, h0_oracle=None)
        for coeffs in product(range(-4, 5), repeat=len(v.generators)):
            d = DivisorClass(coeffs)
            if v.is_nef_and_big(d - v.canonical):
                want = (chi_divisor(v, d), "kawamata-viehweg")
                assert h0_certified(bare, d) == want, (v.name, coeffs)
            else:
                want = (h0_exact(v, d), "family-oracle")
                with pytest.raises(AbstainError, match=rf"^{v.name} has no exact section-count"):
                    h0_certified(bare, d)
            assert h0_certified(v, d) == want, (v.name, coeffs)


def test_h0_certified_abstains_without_either_route(x6):
    bare = dataclasses.replace(x6, h0_oracle=None)
    assert h0_certified(bare, bare.divisor("1H")) == (6, "kawamata-viehweg")
    with pytest.raises(AbstainError, match=r"^X6 has no exact section-count oracle$"):
        h0_certified(bare, bare.divisor("-1H"))
