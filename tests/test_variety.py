import ast
import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import secgenus
from secgenus import hrr
from secgenus.errors import AbstainError, InputError, ModelError
from secgenus.genus import g1_closed
from secgenus.classify import classify_variety
from secgenus.hrr import chi_divisor, chi_multi, h0_certified
from secgenus.suites import get_catalog
from secgenus.variety import (
    NEG_INF,
    DivisorClass,
    VarietyData,
    _horner,
    _monomials,
    _multinomial,
    c2_pair,
    catalog_build,
    h0_exact,
    intersection_number,
    load_variety,
    save_variety,
    standard_catalog,
    validate,
    variety_from_json,
    variety_to_json,
)


def test_intersection_p4(p4):
    h = p4.divisor("1H")
    assert intersection_number(p4, [h, h, h, h]) == 1


def test_intersection_x6(x6):
    h = x6.divisor("1H")
    assert intersection_number(x6, [h] * 4) == 6


def test_intersection_p1xp3(p1xp3):
    d = p1xp3.divisor("1a+1b")
    # (a+b)^4 = 4 a b^3 with a^2 = 0 and b^4 = 0
    assert intersection_number(p1xp3, [d] * 4) == 4


def test_intersection_wrong_count(p4):
    with pytest.raises(InputError):
        intersection_number(p4, [p4.divisor("1H")] * 3)


def test_intersection_symmetric_and_multilinear(catalog):
    rng = random.Random(3)
    for name in ("X6", "P1xP3", "P2xP2"):
        v = catalog[name]
        g = len(v.generators)
        for _ in range(10):
            classes = [
                DivisorClass(tuple(rng.randint(-2, 2) for _ in range(g))) for _ in range(4)
            ]
            base = intersection_number(v, classes)
            shuffled = classes[:]
            rng.shuffle(shuffled)
            assert intersection_number(v, shuffled) == base
            a, b = classes[0], classes[1]
            rest = classes[2:]
            assert intersection_number(v, [a + b, a + b] + rest) == (
                intersection_number(v, [a, a] + rest)
                + 2 * intersection_number(v, [a, b] + rest)
                + intersection_number(v, [b, b] + rest)
            )


def test_pairings_reject_short_class_on_two_generators(catalog):
    # a one-coordinate class on P2xP2 used to be read as a prefix (0 and 3)
    p2xp2 = catalog["P2xP2"]
    short = DivisorClass((1,))
    with pytest.raises(InputError, match=r"\(1,\) has 1 coordinates, P2xP2 has 2 generators"):
        intersection_number(p2xp2, [short] * 4)
    with pytest.raises(InputError, match=r"\(1,\) has 1 coordinates, P2xP2 has 2 generators"):
        c2_pair(p2xp2, [short] * 2)
    with pytest.raises(InputError, match=r"\(1,\) has 1 coordinates, P2xP2 has 2 generators"):
        p2xp2.is_nef_and_big(short)


def test_pairings_reject_long_class_on_one_generator(x6):
    # a two-coordinate class on X6 used to raise IndexError
    long = DivisorClass((1, 1))
    with pytest.raises(InputError, match=r"\(1, 1\) has 2 coordinates, X6 has 1 generators"):
        intersection_number(x6, [x6.divisor("1H")] * 3 + [long])
    with pytest.raises(InputError, match=r"\(1, 1\) has 2 coordinates, X6 has 1 generators"):
        c2_pair(x6, [long, long])
    with pytest.raises(InputError, match=r"\(1, 1\) has 2 coordinates, X6 has 1 generators"):
        x6.is_nef_and_big(long)


def test_c2_pairings(catalog, p4, x6, a4):
    h = x6.divisor("1H")
    assert c2_pair(x6, [h, h]) == 90
    assert c2_pair(a4, [a4.divisor("1L")] * 2) == 0
    assert c2_pair(p4, [p4.divisor("1H")] * 2) == 10
    p1xp3 = catalog["P1xP3"]
    assert c2_pair(p1xp3, [p1xp3.divisor("1a"), p1xp3.divisor("1b")]) == 6
    assert c2_pair(p1xp3, [p1xp3.divisor("1b"), p1xp3.divisor("1b")]) == 8


def test_nef_ample(p4, p1xp3, x6):
    assert p4.is_nef(p4.zero()) and not p4.is_ample(p4.zero())
    fiber = p1xp3.divisor("1a")
    assert p1xp3.is_nef(fiber) and not p1xp3.is_ample(fiber)
    assert not x6.is_nef(x6.divisor("-1H"))
    assert x6.is_nef_and_big(x6.divisor("1H"))
    assert not p1xp3.is_nef_and_big(fiber)  # a^4 = 0


def test_catalog_hypersurface_data(x6, catalog):
    assert x6.canonical.coeffs == (0,)
    assert x6.chi_o == 2
    assert c2_pair(x6, [x6.divisor("1H")] * 2) == 90
    q4 = catalog["Q4"]
    assert q4.canonical.coeffs == (-4,)
    assert q4.hodge == (1, 0, 0, 0, 0)


def test_catalog_p4_data(p4):
    assert p4.canonical.coeffs == (-5,)
    assert p4.hodge == (1, 0, 0, 0, 0)
    assert c2_pair(p4, [p4.divisor("1H")] * 2) == 10


def test_catalog_rejects_bad_params():
    for tag, l4, message in [
        ("p5", None, "dimension at most 4"),
        ("p2xp3", None, "dimension at most 4"),
        ("hypersurface:1", None, "unknown oracle tag"),
        ("abelian", 23, "positive multiple of 24"),
        ("abelian", None, "positive multiple of 24"),
        ("p4", 24, "only 'abelian' takes L"),
        ("hypersurface:6", 24, "only 'abelian' takes L"),
        ("projective_space", None, "unknown oracle tag"),
        ("abelian_fourfold", 24, "unknown oracle tag"),
    ]:
        with pytest.raises(InputError, match=message):
            catalog_build(tag, l4)


# every product of projective spaces of dimension at most 4: 1 + 2 + 4 + 8 = 15 tags
PRODUCT_TAGS = [
    "x".join(f"p{k}" for k in dims)
    for g in range(1, 5)
    for dims in product(range(1, 5), repeat=g)
    if sum(dims) <= 4
]


@pytest.mark.parametrize("tag", PRODUCT_TAGS)
def test_every_product_tag_builds_validates_and_round_trips(tag):
    v = catalog_build(tag)
    dims = tuple(int(factor[1:]) for factor in tag.split("x"))
    assert (v.dim, len(v.generators), v.h0_oracle) == (sum(dims), len(dims), tag)
    assert v.generators == (("H",) if len(dims) == 1 else tuple("abcd"[: len(dims)]))
    report = validate(v)
    assert report.passed, report.to_table()
    back = variety_from_json(json.loads(json.dumps(variety_to_json(v))))
    assert variety_to_json(back) == variety_to_json(v)
    # the Kuenneth count at the polarization is the product of the factors' counts
    assert h0_exact(v, v.polarization) == prod(k + 1 for k in dims)


def test_h0_exact(p4, x6, a4, p1xp3, catalog):
    assert h0_exact(p4, p4.divisor("2H")) == 15
    assert h0_exact(p4, p4.divisor("-1H")) == 0
    assert h0_exact(x6, x6.divisor("2H")) == 21
    assert h0_exact(x6, x6.divisor("6H")) == 461
    assert h0_exact(a4, a4.divisor("2L")) == 16
    assert h0_exact(a4, a4.zero()) == 1
    assert h0_exact(a4, a4.divisor("-1L")) == 0
    assert h0_exact(p1xp3, p1xp3.divisor("1a+1b")) == 8
    assert h0_exact(catalog["P2xP2"], catalog["P2xP2"].divisor("1a+2b")) == 18


def test_h0_exact_rejects_a_class_of_the_wrong_length(p4, p1xp3):
    for v, coeffs in ((p4, (1, 2)), (p1xp3, (1,))):
        with pytest.raises(InputError, match="coordinates"):
            h0_exact(v, DivisorClass(coeffs))


CATALOG_SHA256 = "6d7e93d4649470149140f35e6df572394a088d43eba4bb839f275dec8e7860ed"


def test_catalog_json_is_pinned():
    # covers the kappa declarations and fine types of P1-P3, which no report reaches
    blob = json.dumps([variety_to_json(v) for v in standard_catalog().values()], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == CATALOG_SHA256


def test_h0_exact_without_oracle(x6):
    import dataclasses

    bare = dataclasses.replace(x6, h0_oracle=None)
    with pytest.raises(AbstainError):
        h0_exact(bare, bare.divisor("1H"))


def test_validate_catalog_passes(catalog):
    for v in catalog.values():
        report = validate(v)
        assert report.passed, report.to_table()


def test_validate_labels_keep_the_multiple_apart(catalog, x6):
    names = [c.name for c in validate(catalog["P2xP2"]).checks if "section count" in c.name]
    assert names == [f"chi({m}*(1a+1b)) matches section count" for m in (1, 2, 3)]
    names = [c.name for c in validate(x6).checks if "section count" in c.name]
    assert names == [f"chi({m}*(1H)) matches section count" for m in (1, 2, 3)]


def test_validate_catches_corrupted_form(x6):
    import dataclasses

    corrupted = dataclasses.replace(x6, intersection_form={(4,): 5})
    report = validate(corrupted)
    assert not report.passed


def test_parity_check_can_fail(x6):
    # H^4 = 7 with K = 0 makes (K+3L)L^3 = 21 c^4 at L = cH: odd at c = 1, 3.
    # An odd value makes chi non-integral somewhere, so the lattice row refuses it
    odd = dataclasses.replace(x6, intersection_form={(4,): 7})
    rows = {c.name: (c.passed, c.actual) for c in validate(odd).checks}
    assert rows["chi expansion integral"] == (False, "chi(1H) = 145/24")
    assert not any("L^3 even" in name for name in rows)
    h = odd.divisor("1H")
    with pytest.raises(ModelError, match=r"parity violation on X6: \(K\+A\+B\+C\)ABC = 21 is odd"):
        g1_closed(odd, h, h, h)


def test_parity_rows_cover_every_class_mod_2(catalog):
    # (K+3L)L^3 mod 2 depends only on L mod 2; on this P2xP2 it is odd only at
    # L = (0, 1) mod 2, where the all-ones L does not look.  The lattice row reads
    # chi at every class, so it refuses the model without a parity row per class
    planted = dataclasses.replace(
        catalog["P2xP2"],
        intersection_form={(4, 0): 0, (3, 1): 0, (2, 2): 1, (1, 3): 3, (0, 4): 3},
    )
    rows = {c.name: (c.passed, c.actual) for c in validate(planted).checks}
    assert rows["chi expansion integral"] == (False, "chi(0a+2b) = 67/2")
    assert not any("L^3 even" in name for name in rows)


def _random_fourfold(rng: random.Random, i: int) -> VarietyData:
    """An integer 4-fold of rank 1-3 whose chi need not be integer-valued."""
    g = rng.randint(1, 3)
    return VarietyData(
        name=f"R{i}",
        dim=4,
        generators=("H",) if g == 1 else tuple("abc"[:g]),
        intersection_form={e: rng.randint(-3, 6) for e in _monomials(g, 4)},
        canonical=DivisorClass(tuple(rng.randint(-4, 2) for _ in range(g))),
        c2_pairings={e: rng.randint(-5, 40) for e in _monomials(g, 2)},
        hodge=(1, *(rng.randint(0, 3) for _ in range(4))),
    )


def test_parity_is_an_integer_combination_of_chi(catalog):
    # (K+3L)L^3 = -2 sum_j (-1)^j C(3, j) chi(-jL): an integer-valued chi makes it
    # even, so validate needs no parity row.  chi is read as a Fraction, so the
    # identity is checked on models whose chi is not integer-valued too
    rng = random.Random(25)
    models = [v for v in catalog.values() if v.dim == 4]
    models += [_random_fourfold(rng, i) for i in range(200)]
    pairs = 0
    for v in models:
        chi = v.chi_polynomial
        for coeffs in product(range(-2, 3), repeat=len(v.generators)):
            ell = DivisorClass(coeffs)
            side = -2 * sum(
                (-1) ** j * comb(3, j) * Fraction(_horner(chi.horner, (-j * ell).coeffs), chi.denom)
                for j in range(4)
            )
            assert side == intersection_number(v, [v.canonical + 3 * ell, ell, ell, ell]), (
                v.name,
                coeffs,
            )
            pairs += 1
    assert pairs > 5000


def test_validate_compiles_only_chi():
    # the per-model caches are the names in vars(v) that are not dataclass fields: validate
    # compiles chi, and a whole ``models`` benchmark op adds only the D^n form
    v = catalog_build("hypersurface:6")
    fields = {f.name for f in dataclasses.fields(v)}
    assert validate(v).passed
    assert set(vars(v)) - fields == {"chi_o", "chi_polynomial"}
    ell = v.polarization
    classify_variety(v, ell)
    for t in (-3, 0, 1, 4):
        chi_divisor(v, t * ell)
        h0_certified(v, t * ell)
    assert g1_closed(v, ell, ell, ell) == 10
    assert set(vars(v)) - fields == {"chi_o", "chi_polynomial", "top_form"}


def test_validate_lattice_check_agrees_with_chi_multi(catalog):
    # "chi expansion integral" reads chi on the whole lattice: it must pass exactly
    # when chi_multi over the generator classes succeeds (g <= n, so that expansion
    # is chi itself), and a failing row names a point e >= 0 with |e| <= n where
    # chi_divisor finds the same non-integer value
    outcomes = set()
    for v in catalog.values():
        generators = [v.generator(name) for name in v.generators]
        for field in ("intersection_form", "c2_pairings"):
            table = getattr(v, field)
            for key in table:
                for offset in range(1, 24):
                    planted = dataclasses.replace(v, **{field: {**table, key: table[key] + offset}})
                    checks = validate(planted).checks
                    [check] = [c for c in checks if c.name == "chi expansion integral"]
                    assert check.expected == "integer coefficients"
                    try:
                        chi_multi(planted, generators)
                    except ModelError:
                        assert check.passed is False
                        witness = re.fullmatch(r"chi\((.+)\) = (-?\d+/\d+)", check.actual)
                        point, value = witness.groups()
                        d = planted.divisor(point)
                        assert min(d.coeffs) >= 0 and sum(d.coeffs) <= v.dim
                        with pytest.raises(ModelError, match=f"is not an integer: {value}$"):
                            chi_divisor(planted, d)
                    else:
                        assert (check.passed, check.actual) == (True, "ok")
                    outcomes.add(check.passed)
    assert outcomes == {True, False}


def test_validate_makes_no_call_into_hrr(monkeypatch, catalog, x6):
    calls = []
    for name in ("chi_divisor", "chi_multi"):
        monkeypatch.setattr(hrr, name, lambda *args, name=name: calls.append(name))
    planted = dataclasses.replace(x6, c2_pairings={(2,): 91})
    for v in [*catalog.values(), planted]:
        validate(v)
    assert calls == []


def test_divisor_class_arithmetic():
    a, b, short = DivisorClass((2, -3)), DivisorClass((-1, 5)), DivisorClass((1,))
    assert a + b == DivisorClass((1, 2))
    assert a - b == DivisorClass((3, -8)) == a + (-b)
    assert -a == DivisorClass((-2, 3))
    for k in (-2, 0, 3):
        assert k * a == a * k == DivisorClass(tuple(k * c for c in a.coeffs))
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        for x, y in ((a, short), (short, a)):
            with pytest.raises(InputError) as raised:
                op(x, y)
            assert str(raised.value) == "divisor classes live on different generator lists"
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.coeffs = (0, 0)
    assert a == DivisorClass((2, -3)) and a != b and a != (2, -3)
    assert hash(a) == hash(DivisorClass((2, -3))) == hash(((2, -3),))
    assert len({a, DivisorClass((2, -3)), a - b + b}) == 1


def test_kappa_declarations(catalog):
    x6, a4 = catalog["X6"], catalog["X6"].polarization and catalog["A4"]
    decl = x6.declaration_for(x6.polarization)
    assert decl.kappa == {1: 4, 2: 4, 3: 4}
    decl = catalog["P4"].declaration_for(catalog["P4"].polarization)
    assert decl.kappa == {1: NEG_INF, 2: NEG_INF, 3: NEG_INF}
    decl = catalog["X5"].declaration_for(catalog["X5"].polarization)
    assert decl.kappa == {1: 0, 2: 4, 3: 4}
    assert a4.kappa_x == 0


def test_divisor_parsing(p1xp3, x6):
    assert p1xp3.divisor("2a+1b").coeffs == (2, 1)
    assert p1xp3.divisor("1a-2b").coeffs == (1, -2)
    assert p1xp3.divisor("a+b").coeffs == (1, 1)
    assert x6.divisor("-1H").coeffs == (-1,)
    assert x6.divisor("0H").coeffs == (0,)
    with pytest.raises(InputError):
        x6.divisor("1Z")
    with pytest.raises(InputError):
        x6.divisor("")


def test_divisor_formatting(p1xp3):
    assert p1xp3.divisor_string(p1xp3.divisor("2a+1b")) == "2a+1b"
    assert p1xp3.divisor_string(p1xp3.divisor("1a-2b")) == "1a-2b"


def test_json_round_trip(tmp_path, catalog):
    for name, v in catalog.items():
        path = tmp_path / f"{name}.json"
        save_variety(v, path)
        loaded = load_variety(path)
        assert variety_to_json(loaded) == variety_to_json(v)
        assert variety_to_json(v)["nef_cone"] == ("ray" if len(v.generators) == 1 else "orthant")
        assert loaded.chi_o == v.chi_o
        assert loaded.kappa_adjoint == v.kappa_adjoint


def test_json_monomial_keys(x6, p1xp3):
    blob = variety_to_json(x6)
    assert blob["intersections"] == {"H^4": 6}
    blob = variety_to_json(p1xp3)
    assert blob["intersections"]["a b^3"] == 1
    assert blob["c2_pairings"]["a b"] == 6


def test_json_malformed():
    with pytest.raises(InputError):
        variety_from_json({"name": "broken"})


def test_json_kappa_encoding(p4):
    blob = variety_to_json(p4)
    assert blob["kappa_X"] == "-inf"
    restored = variety_from_json(json.loads(json.dumps(blob)))
    assert restored.kappa_x == NEG_INF


def test_hodge_invariants_enforced():
    with pytest.raises(ModelError):
        variety_from_json(
            {
                "name": "bad",
                "dim": 1,
                "generators": ["H"],
                "intersections": {"H": 1},
                "canonical": [-2],
                "c2_pairings": {},
                "hodge": [2, 0],
                "nef_cone": "ray",
            }
        )


def test_h0_of_o_other_than_one_is_refused_before_validate(x6):
    fields = {f.name: getattr(x6, f.name) for f in dataclasses.fields(x6)}
    for h0 in (0, 2):
        hodge = (h0, *x6.hodge[1:])
        blob = json.loads(json.dumps(variety_to_json(x6)))
        blob["hodge"] = list(hodge)
        for build in (
            lambda: VarietyData(**{**fields, "hodge": hodge}),
            lambda: dataclasses.replace(x6, hodge=hodge),
            lambda: variety_from_json(blob),
        ):
            with pytest.raises(ModelError, match=r"^h\^0\(O\) must be 1 \(connectedness\)$"):
                build()
    assert not [c for c in validate(x6).checks if "h0(O)" in c.name]


def test_multinomial_counts_orderings():
    for g in (1, 2, 3):
        for degree in range(5):
            for e in _monomials(g, degree):
                assert _multinomial(e) == factorial(sum(e)) // prod(factorial(k) for k in e), e


# -- the JSON boundary -------------------------------------------------------


def _catalog_json(name: str) -> dict:
    return json.loads(json.dumps(variety_to_json(get_catalog()[name])))


def _set(blob: dict, path: tuple, value) -> None:
    *parents, leaf = path
    for key in parents:
        blob = blob[key]
    blob[leaf] = value


@pytest.mark.parametrize(
    "name, tag",
    [
        ("P2xP2", "p4"),  # right dimension, two generators
        ("X6", "p2xp2"),
        ("P3", "p4"),
        ("P4", "p3"),
        ("P3", "hypersurface:3"),  # hypersurfaces in P^5 are 4-folds
        ("P2xP2", "abelian"),
        ("X6", "hypersurface:1"),
        ("X6", "sextic"),  # unknown tag
        ("X6", 6),
        ("X6", "hypersurface:06"),  # tags are read only in their canonical spelling
        ("P1", "p01"),
        ("P1", "p0"),
        ("P1xP3", "p1xp0"),
    ],
)
def test_json_rejects_oracle_mismatch(name, tag):
    blob = _catalog_json(name)
    blob["oracle"] = tag
    with pytest.raises(InputError, match="oracle"):
        variety_from_json(blob)


def test_json_oracle_optional():
    blob = _catalog_json("P2xP2")
    blob["oracle"] = None
    assert variety_from_json(blob).h0_oracle is None


def test_json_nef_cone_values():
    blob = _catalog_json("X6")
    blob["nef_cone"] = "orthant"  # a one-generator orthant is the ray
    assert variety_to_json(variety_from_json(blob))["nef_cone"] == "ray"
    blob["nef_cone"] = "cone"
    with pytest.raises(InputError, match="nef_cone"):
        variety_from_json(blob)
    blob = _catalog_json("P2xP2")
    blob["nef_cone"] = "ray"
    with pytest.raises(InputError, match="one generator"):
        variety_from_json(blob)
    del blob["nef_cone"]
    with pytest.raises(InputError):
        variety_from_json(blob)


def _integer_paths(blob: dict) -> list[tuple]:
    """Every field the schema requires to be a JSON integer (kappa: or "-inf")."""
    paths = [("dim",), ("kappa_X",)]
    paths += [(table, key) for table in ("intersections", "c2_pairings") for key in blob[table]]
    paths += [(vec, i) for vec in ("canonical", "hodge", "polarization") for i in range(len(blob[vec]))]
    paths += [
        ("kappa_adjoint", key, "kappa", a)
        for key, decl in blob["kappa_adjoint"].items()
        for a in decl["kappa"]
    ]
    return paths


_NOT_INT = st.one_of(st.floats(), st.booleans(), st.text(max_size=6), st.none())
# null is an undeclared kappa and "-inf" a declared one; both are valid.
_NOT_KAPPA = st.one_of(st.floats(), st.booleans(), st.text(max_size=6).filter(lambda s: s != "-inf"))


@st.composite
def _corrupted_field(draw):
    name = draw(st.sampled_from(sorted(get_catalog())))
    path = draw(st.sampled_from(_integer_paths(_catalog_json(name))))
    is_kappa = path[0] in ("kappa_X", "kappa_adjoint")
    return name, path, draw(_NOT_KAPPA if is_kappa else _NOT_INT)


@given(_corrupted_field())
@example(("X6", ("intersections", "H^4"), 6.9))  # was truncated to 6
@example(("X6", ("canonical", 0), 0.7))  # was truncated to 0
@example(("X6", ("hodge",), [True, 0, 0, 0, 1.5]))  # gave chi(O) = 2.5
@example(("X6", ("c2_pairings", "H^2"), 90.0))
@example(("P2xP2", ("dim",), "4"))
@example(("X6", ("polarization", 0), True))
@example(("A4", ("kappa_X",), float("-inf")))
@example(("X6", ("kappa_adjoint", "1H", "kappa", "1"), "4"))
@settings(max_examples=200, deadline=None)
def test_fuzz_non_integer_field_raises_input_error(case):
    name, path, value = case
    blob = _catalog_json(name)
    _set(blob, path, value)
    with pytest.raises(InputError, match="JSON integer"):
        variety_from_json(blob)


@pytest.mark.parametrize(
    "name, polarization, message",
    [
        ("X6", [1, 1], "wrong length"),  # made validate crash in chi_multi
        ("X6", [], "wrong length"),
        ("P2xP2", [1], "wrong length"),
        ("X6", [-1], "not ample"),  # loaded and validated
        ("X6", [0], "not ample"),
        ("P2xP2", [1, 0], "not ample"),
    ],
)
def test_json_rejects_bad_polarization(name, polarization, message):
    blob = _catalog_json(name)
    blob["polarization"] = polarization
    with pytest.raises(InputError, match=message):
        variety_from_json(blob)


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("X6", ("intersections", "H^3"), 5, "degree 3, not 4"),  # loaded as (3,)
        ("X6", ("c2_pairings", "H^4"), 1, "degree 4, not 2"),
        ("P1", ("c2_pairings", "1"), 0, "degree 0, not -1"),
        ("P1xP3", ("intersections", "b^3 a"), 1, "given twice"),
        ("X6", ("intersections", "H^2 H^2"), 6, "given twice"),
        ("X6", ("intersections", "H^0 H^4"), 6, "not a positive integer"),
        ("X6", ("intersections", "H^-4"), 6, "not a positive integer"),
        ("X6", ("intersections", "G^4"), 6, "unknown generator"),
        ("X6", ("kappa_X",), 9, "kappa"),  # loaded on a 4-fold
        ("X6", ("kappa_X",), -1, "kappa"),
        ("P2", ("kappa_X",), 3, "kappa"),
        ("X6", ("kappa_adjoint", "1H", "kappa", "1"), 5, "kappa"),
        ("X6", ("generators",), "H", "generators"),
        ("P1xP3", ("generators",), ["a", "a"], "repeat"),
        ("X6", ("generators",), ["2H"], "identifier"),
        ("X6", ("generators",), [], "generators"),
        # twist keys were read with int(): "01" overwrote "1", "1_0" became 10
        ("X6", ("kappa_adjoint", "1H", "kappa", "01"), 0, "twist key '01'"),
        ("X6", ("kappa_adjoint", "1H", "kappa", "1_0"), 3, "twist key '1_0'"),
        ("X6", ("kappa_adjoint", "1H", "kappa", " 2"), 4, "twist key ' 2'"),
        # each loaded as the model's name
        ("X6", ("name",), None, "name must be a non-empty JSON string, got None"),
        ("X6", ("name",), [1], r"name must be a non-empty JSON string, got \[1\]"),
        ("X6", ("name",), 5, "name must be a non-empty JSON string, got 5"),
        ("X6", ("name",), "", "name must be a non-empty JSON string, got ''"),
        # each iterated: a string by character, an object by key
        ("X6", ("hodge",), "10000", "hodge must be a JSON list, got '10000'"),
        ("X6", ("canonical",), {"a": 1}, "canonical must be a JSON list, got {'a': 1}"),
        ("X6", ("polarization",), "1", "polarization must be a JSON list, got '1'"),
        ("P2xP2", ("polarization",), {"a": 1, "b": 1}, "polarization must be a JSON list"),
        # each read as an empty table: only null stands for one
        ("P4", ("c2_pairings",), False, "c2_pairings must be a JSON object or null, got False"),
        ("P4", ("c2_pairings",), [], r"c2_pairings must be a JSON object or null, got \[\]"),
        ("P4", ("kappa_adjoint",), 0, "kappa_adjoint must be a JSON object or null, got 0"),
        ("P4", ("kappa_adjoint",), "", "kappa_adjoint must be a JSON object or null, got ''"),
        ("P4", ("kappa_adjoint", "1H", "kappa"), False, r"kappa_adjoint\['1H'\] kappa must be"),
        ("P4", ("kappa_adjoint", "1H", "kappa"), [], r"kappa_adjoint\['1H'\] kappa must be"),
        # read with .get
        ("X6", ("kappa_adjoint", "1H"), None, r"kappa_adjoint\['1H'\] must be a JSON object"),
        ("X6", ("kappa_adjoint", "1H"), [1], r"kappa_adjoint\['1H'\] must be a JSON object"),
    ],
)
def test_json_rejects_malformed_schema(name, path, value, message):
    blob = _catalog_json(name)
    _set(blob, path, value)
    with pytest.raises(InputError, match=message):
        variety_from_json(blob)


@pytest.mark.parametrize("absent", [False, True])
@pytest.mark.parametrize(
    "path, read",
    [
        (("c2_pairings",), lambda v: v.c2_pairings),
        (("kappa_adjoint",), lambda v: v.kappa_adjoint),
        (("kappa_adjoint", "1H", "kappa"), lambda v: v.kappa_adjoint["1H"].kappa),
    ],
)
def test_json_null_or_absent_table_loads_empty(path, read, absent):
    blob = _catalog_json("P4")
    *parents, leaf = path
    parent = blob
    for key in parents:
        parent = parent[key]
    if absent:
        del parent[leaf]
    else:
        parent[leaf] = None
    assert read(variety_from_json(blob)) == {}


def test_json_accepts_kappa_range_ends():
    blob = _catalog_json("X6")
    blob["kappa_X"] = 4
    blob["kappa_adjoint"]["1H"]["kappa"]["1"] = 0
    assert variety_from_json(blob).kappa_x == 4


def _json_paths(value, prefix: tuple = ()) -> list[tuple]:
    """The path of every object member and list entry inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    paths = []
    for key, child in items:
        paths += [(*prefix, key), *_json_paths(child, (*prefix, key))]
    return paths


_DROP = "<drop>"  # a change that deletes the member or entry
# null, a container of the wrong type (or a string where one belongs), a nested null
_CHANGES = [_DROP, None, [], {}, "", [None], {"H": None}]


@st.composite
def _structural_change(draw):
    name = draw(st.sampled_from(sorted(get_catalog())))
    path = draw(st.sampled_from(_json_paths(_catalog_json(name))))
    return name, path, draw(st.sampled_from(_CHANGES))


@given(_structural_change())
@example(("X6", ("name",), None))
@example(("X6", ("hodge",), {"H": None}))
@example(("P2xP2", ("kappa_adjoint",), [None]))
@example(("X6", ("kappa_adjoint", "1H"), None))
@example(("X6", ("kappa_adjoint", "1H", "kappa"), [None]))
@example(("P1xP3", ("intersections", "a b^3"), _DROP))
@settings(max_examples=200, deadline=None)
def test_fuzz_structure_loads_or_raises_input_error(case):
    # a missing key, a null or a container of the wrong type is an InputError,
    # never a traceback of another kind
    name, path, change = case
    blob = _catalog_json(name)
    *parents, leaf = path
    parent = blob
    for key in parents:
        parent = parent[key]
    if change == _DROP:
        del parent[leaf]
    else:
        parent[leaf] = json.loads(json.dumps(change))
    try:
        variety_from_json(blob)
    except InputError:
        pass


_KEY_NAMES = ["H", "a", "b", "L", "Z", "h", "1", "a1", ""]
_KEY_POWERS = ["", "^0", "^1", "^2", "^3", "^4", "^5", "^-1", "^x", "^", "^1.5", "^2^2"]


@st.composite
def _extra_key(draw):
    """A catalog JSON and a table key it does not have yet."""
    name = draw(st.sampled_from(sorted(get_catalog())))
    table = draw(st.sampled_from(["intersections", "c2_pairings"]))
    tokens = st.tuples(st.sampled_from(_KEY_NAMES), st.sampled_from(_KEY_POWERS))
    key = draw(
        st.one_of(
            st.lists(tokens, max_size=5).map(lambda ts: " ".join(n + p for n, p in ts)),
            st.text(max_size=8),
        )
    )
    blob = _catalog_json(name)
    assume(key not in blob[table])
    return name, table, key


@given(_extra_key())
@example(("X6", "intersections", "H^3"))
@example(("X6", "intersections", "H^2 H^2"))
@example(("P1xP3", "intersections", "b^3 a"))
@example(("P2", "c2_pairings", ""))
@example(("P1", "c2_pairings", "1"))
@settings(max_examples=200, deadline=None)
def test_fuzz_extra_table_key_raises_input_error(case):
    # every catalog table is complete, so a key it lacks is malformed, of the
    # wrong degree, or a second spelling of a monomial it has
    name, table, key = case
    blob = _catalog_json(name)
    blob[table][key] = 0
    with pytest.raises(InputError):
        variety_from_json(blob)


def _local_imports(node, function=None):
    """(function, import statement) for every import inside a function body under node."""
    for child in ast.iter_child_nodes(node):
        if function and isinstance(child, (ast.Import, ast.ImportFrom)):
            yield function, ast.unparse(child)
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _local_imports(child, child.name if is_function else function)


def test_no_function_local_import_and_variety_does_not_import_hrr():
    # hrr imports variety at module level, so an import of hrr in variety, at any
    # level, would bring the cycle back
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(secgenus.__file__).parent.glob("*.py"))
    }
    assert [(name, *entry) for name, tree in trees.items() for entry in _local_imports(tree)] == []
    imported = []
    for node in ast.walk(trees["variety.py"]):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [name for name in imported if "hrr" in name.split(".")]
