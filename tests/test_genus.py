import dataclasses
import gc
import random
import weakref

import pytest

from secgenus import genus
from secgenus.errors import InputError, ModelError
from secgenus.genus import (
    additivity_residual,
    chi_H_i,
    chi_H_table,
    g1_closed,
    g2_adjoint_closed,
    g_i,
    genus_from_chi_H,
)
from secgenus.hrr import chi_divisor, chi_multi
from secgenus.variety import DivisorClass, catalog_build, intersection_number


def test_chi_h_values(p4, x6):
    h = x6.divisor("1H")
    assert chi_H_i(x6, 2, [h, h]) == 11
    assert chi_H_i(x6, 4, []) == 2  # i = n falls back to chi(O)
    hp = p4.divisor("1H")
    assert chi_H_i(p4, 0, [hp] * 4) == 1  # top mixed coefficient is H^4


def test_chi_h_matches_full_expansion(catalog):
    # inclusion-exclusion over 2^k chi values against the all-ones coefficient
    # of the interpolated expansion; the two share only the compiled chi
    rng = random.Random(4634)

    def draw(g, lo, hi):
        return DivisorClass(tuple(rng.randint(lo, hi) for _ in range(g)))

    for v in catalog.values():
        g = len(v.generators)
        for i in range(v.dim):
            k = v.dim - i
            for trial in range(4):
                bundles = [draw(g, -3, 3) for _ in range(k)]
                if trial == 0:
                    bundles[rng.randrange(k)] = v.zero()
                elif trial == 1:  # one positive class, the rest negative
                    bundles = [draw(g, 1, 3)] + [draw(g, -3, -1) for _ in range(k - 1)]
                expected = chi_multi(v, bundles).coefficient((1,) * k)
                assert chi_H_i(v, i, bundles) == expected, (v.name, i, bundles)
                for order in (bundles[::-1], rng.sample(bundles, k)):
                    assert chi_H_i(v, i, order) == expected, (v.name, i, order)


def _sub_list(bundles, mask):
    return [b for j, b in enumerate(bundles) if mask >> j & 1]


def test_chi_h_table_entries_are_sub_list_genera(catalog):
    # entry S of the lattice table against chi_H_i of the sub-list S and the
    # all-ones coefficient of its full expansion, on every catalog entry
    rng = random.Random(11)

    def draw(g, lo, hi):
        return DivisorClass(tuple(rng.randint(lo, hi) for _ in range(g)))

    for v in catalog.values():
        g = len(v.generators)
        for trial in range(3):
            bundles = [draw(g, -3, 3) for _ in range(v.dim)]
            if trial == 0:  # a zero class and a repeated bundle
                bundles[0] = v.zero()
                bundles[-1] = bundles[len(bundles) // 2]
            elif trial == 1:  # mixed signs
                bundles = [draw(g, 1, 3) if j % 2 else draw(g, -3, -1) for j in range(v.dim)]
            table = chi_H_table(v, bundles)
            assert sorted(table) == list(range(2 ** v.dim))
            for mask, value in table.items():
                sub = _sub_list(bundles, mask)
                assert value == chi_H_i(v, v.dim - len(sub), sub), (v.name, sub)
                if sub:
                    expected = chi_multi(v, sub).coefficient((1,) * len(sub))
                    assert value == expected, (v.name, sub)


def test_chi_h_table_cap_keeps_a_down_closed_family(x6):
    h = x6.divisor("1H")
    bundles = [h, 2 * h, -h, 3 * h, x6.zero(), 2 * h]
    full = chi_H_table(x6, bundles)
    capped = chi_H_table(x6, bundles, max_size=2)
    # at most two of the first five bundles; the last one is free
    assert set(capped) == {mask for mask in full if (mask & 0b11111).bit_count() <= 2}
    assert all(capped[mask] == full[mask] for mask in capped)
    # sub-lists longer than the dimension have chi^H = 0 (chi has degree 4)
    assert all(full[mask] == 0 for mask in full if mask.bit_count() > x6.dim)
    assert chi_H_table(x6, []) == {0: x6.chi_o}
    assert chi_H_table(x6, [h], max_size=0) == {0: x6.chi_o, 1: chi_H_i(x6, 3, [h])}


def test_chi_h_table_rejects_wrong_length(p1xp3):
    with pytest.raises(InputError, match="has 1 coordinates"):
        chi_H_table(p1xp3, [p1xp3.divisor("1a"), DivisorClass((1,))])
    with pytest.raises(InputError):
        chi_H_i(p1xp3, 3, [DivisorClass((1, 0, 0))])


def _x6_c2_91(x6):
    # c2.H^2 = 91 instead of 90 (K = 0): 24 chi(tH) = 48 + 6t^4 + 91t^2 is divisible by 24
    # at t = 0, 12 and 24 but not at t = 1, 2 or 3
    return dataclasses.replace(x6, c2_pairings={(2,): 91})


def _chi_H_table_reference(v, bundles, max_size=None):
    """chi_divisor at each subset sum in mask order, then inclusion-exclusion over submasks."""
    k = len(bundles)
    capped = ((1 << k) - 1) >> 1
    masks = [m for m in range(1 << k) if max_size is None or (m & capped).bit_count() <= max_size]
    chi = {}
    for mask in masks:
        point = v.zero()
        for b in _sub_list(bundles, mask):
            point = point - b
        chi[mask] = chi_divisor(v, point)
    return {
        mask: sum((-1) ** sub.bit_count() * chi[sub] for sub in masks if sub & mask == sub)
        for mask in masks
    }


def test_chi_h_table_equals_the_chi_divisor_reference(catalog):
    rng = random.Random(2027)

    def draw(g):
        return DivisorClass(tuple(rng.randint(-3, 3) for _ in range(g)))

    for v in catalog.values():
        g = len(v.generators)
        for k in range(v.dim + 1):
            for _ in range(3):
                bundles = [draw(g) for _ in range(k)]
                for max_size in (None, *range(k)):
                    expected = _chi_H_table_reference(v, bundles, max_size)
                    assert chi_H_table(v, bundles, max_size) == expected, (v.name, bundles)


@pytest.fixture
def chi_divisor_calls(monkeypatch):
    calls = []
    original = genus.chi_divisor

    def counted(v, d):
        calls.append(d)
        return original(v, d)

    monkeypatch.setattr(genus, "chi_divisor", counted)
    return calls


def test_chi_h_table_calls_chi_divisor_only_to_raise(catalog, x6, chi_divisor_calls):
    for v in catalog.values():
        chi_H_table(v, [v.polarization] * v.dim)
    assert chi_divisor_calls == []
    planted = _x6_c2_91(x6)
    with pytest.raises(ModelError):
        chi_H_table(planted, [planted.divisor("1H")] * 2)
    assert len(chi_divisor_calls) == 1


def test_chi_h_table_raises_the_reference_error_on_a_plant(x6):
    # the first failing point (in mask order) moves with the list
    planted = _x6_c2_91(x6)
    h = planted.divisor("1H")
    for bundles, max_size in [
        ([h], None),
        ([planted.zero(), h], None),
        ([12 * h, h, 2 * h], None),
        ([12 * h, 24 * h, 2 * h], 0),
    ]:
        with pytest.raises(ModelError) as reference:
            _chi_H_table_reference(planted, bundles, max_size)
        with pytest.raises(ModelError) as kernel:
            chi_H_table(planted, bundles, max_size)
        assert str(kernel.value) == str(reference.value)
        assert "on X6 is not an integer" in str(kernel.value)


def _genus_from_chi_H_reference(v, i, chi_h):
    n = v.dim
    tail = sum((-1) ** (n - i - j) * v.hodge[n - j] for j in range(n - i + 1))
    return (-1) ** i * (chi_h - v.chi_o) + tail


def test_genus_from_chi_h_equals_the_signed_sum(catalog):
    rng = random.Random(91)
    models = list(catalog.values())
    for v in list(models):
        for _ in range(4):
            hodge = (1, *(rng.randint(0, 40) for _ in range(v.dim)))
            models.append(dataclasses.replace(v, hodge=hodge))
    for v in models:
        for i in range(v.dim + 1):
            for chi_h in (0, v.chi_o, rng.randint(-500, 500)):
                assert genus_from_chi_H(v, i, chi_h) == _genus_from_chi_H_reference(v, i, chi_h)


def test_genus_keeps_no_reference_to_the_model():
    v = catalog_build("hypersurface:6")
    h = v.divisor("1H")
    assert chi_H_i(v, 2, [h, h]) == 11
    assert g_i(v, 1, [h, h, h]) == 10
    assert v.is_nef_and_big(h)
    model = weakref.ref(v)
    del v
    gc.collect()
    assert model() is None


def test_chi_h_arity_contract(x6):
    with pytest.raises(InputError):
        chi_H_i(x6, 2, [x6.divisor("1H")])
    with pytest.raises(InputError):
        chi_H_i(x6, 5, [])


def test_genus_ground_truths(p4, x6):
    h = x6.divisor("1H")
    hp = p4.divisor("1H")
    assert g_i(p4, 0, [hp] * 4) == 1
    assert g_i(x6, 1, [h] * 3) == 10  # plane sextic curve section
    assert g_i(x6, 3, [h]) == 5  # h^0 of the canonical bundle of a hyperplane section
    assert g_i(x6, 4, []) == 1
    assert g_i(x6, 2, [h, h]) == 10


def test_g0_is_degree(catalog):
    rng = random.Random(21)
    for _ in range(50):
        v = list(catalog.values())[rng.randrange(len(catalog))]
        g = len(v.generators)
        bundles = [
            DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g))) for _ in range(v.dim)
        ]
        assert g_i(v, 0, bundles) == intersection_number(v, bundles)


def test_gn_is_top_hodge(catalog):
    for v in catalog.values():
        assert g_i(v, v.dim, []) == v.hodge[v.dim]


def test_equal_bundle_consistency(catalog):
    # the multivariate all-ones coefficient with equal bundles reproduces the
    # single-polynomial computation through re-expansion of chi(tL)
    from secgenus.binpoly import coefficients_from_oracle
    from secgenus.hrr import chi_divisor

    for name in ("P4", "X6", "A4", "P1xP3", "P2xP2"):
        v = catalog[name]
        ell = v.polarization
        single = coefficients_from_oracle(lambda t: chi_divisor(v, t * ell), 1, v.dim)
        for i in range(v.dim):
            assert chi_H_i(v, i, [ell] * (v.dim - i)) == int(
                single.coefficient((v.dim - i,))
            ), (name, i)


def test_g1_closed_form(p4, x6):
    h = x6.divisor("1H")
    assert g1_closed(x6, h, h, h) == 10
    hp = p4.divisor("1H")
    assert g1_closed(p4, hp, hp, hp) == 0  # line section of projective space


def test_g1_closed_adjoint_instance(x6):
    # with A = B = K + L and C = L the form reads 1 + (3/2)(K+L)^3 L
    h = x6.divisor("1H")
    kl = x6.canonical + h
    assert g1_closed(x6, kl, kl, h) == 1 + 9


def test_g1_closed_is_the_classical_curve_section_genus():
    # the curve cut by three sections of L, by a formula independent of the intersection
    # table: a plane curve of degree d on X_d, 1 + 3 L^4 / 2 on an abelian 4-fold (K = 0),
    # a line on P4, a rational normal quartic on P1xP3, an elliptic sextic on P2xP2
    cases = [(catalog_build(f"hypersurface:{d}"), (d - 1) * (d - 2) // 2) for d in range(2, 17)]
    cases += [(catalog_build("abelian", 24 * k), 1 + 36 * k) for k in range(1, 61)]
    cases += [(catalog_build("p1xp3"), 0), (catalog_build("p4"), 0), (catalog_build("p2xp2"), 1)]
    for v, genus in cases:
        ell = v.polarization
        assert g1_closed(v, ell, ell, ell) == genus, v.name


def test_g2_adjoint_closed(x6, a4):
    assert g2_adjoint_closed(x6, x6.divisor("1H")) == 10
    assert g2_adjoint_closed(a4, a4.divisor("1L")) == 17


def test_g2_adjoint_closed_names_a_non_integer_value(x6):
    # 24 g_2(X, tH, tH) = 84t^4 + 182t^2 - 24 on the plant has denominators 12, 3 and 4
    # at t = 1, 2 and 3; t = 0 stays integral
    planted = _x6_c2_91(x6)
    for twist, value in (("1H", "121/12"), ("2H", "256/3"), ("3H", "1403/4"), ("-1H", "121/12")):
        with pytest.raises(ModelError) as caught:
            g2_adjoint_closed(planted, planted.divisor(twist))
        assert str(caught.value) == f"g_2 closed form on X6 is not an integer: {value}"
    assert g2_adjoint_closed(planted, planted.zero()) == -1


def test_closed_forms_match_definition(catalog):
    rng = random.Random(33)
    for name in ("P4", "Q4", "X6", "A4", "P1xP3", "P2xP2"):
        v = catalog[name]
        g = len(v.generators)
        for _ in range(8):
            a = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            b = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            c = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            assert g1_closed(v, a, b, c) == g_i(v, 1, [a, b, c])
            ell = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            kl = v.canonical + ell
            assert g2_adjoint_closed(v, ell) == g_i(v, 2, [kl, kl])


def test_additivity_examples(p4, x6):
    h = x6.divisor("1H")
    assert g_i(x6, 2, [2 * h, h]) == 30  # decomposes as 10 + 10 + 10 - 0
    assert additivity_residual(x6, 2, h, h, [h]) == 0
    hp = p4.divisor("1H")
    assert additivity_residual(p4, 1, hp, hp, [hp, hp]) == 0
    assert additivity_residual(x6, 2, x6.zero(), x6.zero(), [h]) == 0


def test_additivity_random_draws(catalog):
    rng = random.Random(55)
    entries = [catalog[n] for n in ("P4", "Q4", "X6", "A4", "P1xP3", "P2xP2", "P3", "P2")]
    for k in range(100):
        v = entries[k % len(entries)]
        g = len(v.generators)
        i = rng.randint(1, v.dim - 1) if v.dim > 1 else None
        if i is None:
            continue
        a = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
        b = DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
        rest = [
            DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
            for _ in range(v.dim - i - 1)
        ]
        assert additivity_residual(v, i, a, b, rest) == 0


def test_additivity_index_contract(x6):
    h = x6.divisor("1H")
    with pytest.raises(InputError):
        additivity_residual(x6, 0, h, h, [h, h])
    with pytest.raises(InputError):
        additivity_residual(x6, 4, h, h, [])


def test_all_genus_values_integral(catalog):
    # TypeError would surface if anything came back fractional; g_i returns int
    rng = random.Random(77)
    for v in catalog.values():
        g = len(v.generators)
        for _ in range(5):
            i = rng.randint(0, v.dim)
            bundles = [
                DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g)))
                for _ in range(v.dim - i)
            ]
            assert isinstance(g_i(v, i, bundles), int)
