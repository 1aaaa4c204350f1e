from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secgenus.binpoly import (
    BinBasisPoly,
    backward_differences,
    binomial,
    coefficients_from_oracle,
    simplex,
)
from secgenus.errors import InputError, OracleDegreeError

# Binomial coefficients of chi(tH) for the degree-six hypersurface in P^5,
# frozen from the difference table of chi values 2, 6, 21, 56 at t = 0..3
# and the Serre-dual values at negative t.
X6_COEFFS = {(0,): 2, (1,): -4, (2,): 11, (3,): -9, (4,): 6}


def test_binomial_polynomial_extension():
    # C(a, b) = a(a-1)...(a-b+1)/b! for negative a, not the zero convention
    assert binomial(-2, 4) == 5
    assert binomial(-3, 4) == 15
    assert binomial(-1, 1) == -1
    assert binomial(3, 4) == 0
    assert binomial(5, 4) == 5
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_lower_index():
    with pytest.raises(InputError):
        binomial(3, -1)


def test_eval_constant():
    poly = BinBasisPoly(1, 0, {(0,): Fraction(2)})
    assert poly.eval((7,)) == 2


def test_eval_all_ones_is_full_binomial():
    # all-ones coefficients on degrees 0..4 re-sums to C(t+4, 4)
    poly = BinBasisPoly(1, 4, {(p,): Fraction(1) for p in range(5)})
    assert poly.eval((1,)) == 5
    assert poly.eval((2,)) == 15
    assert poly.eval((-5,)) == 1  # C(-1,4) pattern telescopes back to 1


def test_eval_hypersurface_coefficients():
    poly = BinBasisPoly(1, 4, X6_COEFFS)
    assert poly.eval((2,)) == 21  # section count C(7,5) of the double twist
    assert poly.eval((0,)) == 2
    assert poly.eval((1,)) == 6


def test_eval_arity_mismatch():
    poly = BinBasisPoly(2, 2, {(1, 1): Fraction(1)})
    with pytest.raises(InputError):
        poly.eval((1,))


def test_backward_difference_shifts_indices():
    poly = BinBasisPoly(1, 4, {(p,): Fraction(1) for p in range(5)})
    diff = poly.backward_difference(0)
    assert diff.coeffs == {(p,): Fraction(1) for p in range(4)}


def test_backward_difference_of_constant_is_zero():
    poly = BinBasisPoly(1, 3, {(0,): Fraction(5)})
    assert not poly.backward_difference(0).coeffs


def test_double_difference_at_origin(x6):
    from secgenus.hrr import chi_multi

    h = x6.divisor("1H")
    poly = chi_multi(x6, [h, h])
    diff = poly.backward_difference(0).backward_difference(1)
    # grid values chi(0,0)=2, chi(-1,0)=chi(0,-1)=6, chi(-1,-1)=21:
    # (2-6)-(6-21) = 11
    assert diff.eval((0, 0)) == 11


def test_coefficients_from_oracle_projective_space():
    poly = coefficients_from_oracle(lambda t: binomial(t + 4, 4), 1, 4)
    assert poly.coeffs == {(p,): Fraction(1) for p in range(5)}


def test_coefficients_from_oracle_zero():
    poly = coefficients_from_oracle(lambda t: 0, 1, 4)
    assert not poly.coeffs


def test_coefficients_from_oracle_hypersurface():
    # chi(tH) = 2 + t^4/4 + 15 t^2/4 on the degree-six hypersurface
    def chi(t):
        return 2 + Fraction(t**4 + 15 * t**2, 4)

    poly = coefficients_from_oracle(chi, 1, 4)
    assert poly.coeffs == {k: Fraction(v) for k, v in X6_COEFFS.items()}


def test_oracle_degree_rejection():
    # total degree 5 > 4 shows up inside the sample cube and is rejected
    with pytest.raises(OracleDegreeError):
        coefficients_from_oracle(lambda s, t: s**2 * t**3, 2, 4)
    with pytest.raises(OracleDegreeError):
        coefficients_from_oracle(lambda s, t: s**3 * t**2 - s * t, 2, 4)


def _random_poly_oracle(coeff_rows):
    def f(*point):
        total = 0
        for exps, c in coeff_rows:
            term = c
            for t, e in zip(point, exps):
                term *= t**e
            total += term
        return total

    return f


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 4),
            st.integers(-5, 5),
        ),
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_reconstruction_on_wide_grid(coeff_rows):
    f = _random_poly_oracle(coeff_rows)
    poly = coefficients_from_oracle(f, 2, 4)
    for point in product(range(-4, 5), repeat=2):
        assert poly.eval(point) == f(*point)


@given(
    st.lists(st.integers(-9, 9), min_size=5, max_size=5),
    st.lists(st.integers(-9, 9), min_size=5, max_size=5),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(max_examples=40, deadline=None)
def test_extraction_linearity(cs, ds, alpha, beta):
    f = _random_poly_oracle([((e, 0), c) for e, c in enumerate(cs) if e <= 4])
    g = _random_poly_oracle([((e, 0), c) for e, c in enumerate(ds) if e <= 4])
    combo = coefficients_from_oracle(lambda s, t: alpha * f(s, t) + beta * g(s, t), 2, 4)
    pf = coefficients_from_oracle(f, 2, 4)
    pg = coefficients_from_oracle(g, 2, 4)
    merged = {
        p: alpha * pf.coefficient(p) + beta * pg.coefficient(p) for p in pf.coeffs | pg.coeffs
    }
    assert combo.coeffs == {p: c for p, c in merged.items() if c}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_integer_valued_oracle_gives_integer_coefficients(data):
    # polynomials spanned by binomials C(t+p-1, p) are integer-valued; arity >= 3
    # walks the difference transform's inner strides
    arity = data.draw(st.sampled_from([1, 3, 4]))
    indices = [p for p in product(range(5), repeat=arity) if sum(p) <= 4]
    cs = data.draw(st.dictionaries(st.sampled_from(indices), st.integers(-6, 6), max_size=8))
    base = BinBasisPoly(arity, 4, {p: Fraction(c) for p, c in cs.items()})
    poly = coefficients_from_oracle(lambda *t: base.eval(t), arity, 4)
    assert poly.is_integral()
    assert poly.coeffs == base.coeffs
    points = simplex(arity, 4)
    diffs = backward_differences(points, [base.eval([-x for x in q]) for q in points])
    assert {p: c for p, c in zip(points, diffs) if c} == base.coeffs


def test_difference_extraction_consistency():
    poly = BinBasisPoly(2, 4, {(2, 1): Fraction(3), (0, 2): Fraction(-1), (1, 1): Fraction(7)})
    # coefficient at (2,1) equals the (2,1)-fold difference evaluated at 0
    diff = poly.backward_difference(0).backward_difference(0).backward_difference(1)
    assert diff.eval((0, 0)) == 3


def test_json_dict_round_trip_shape():
    poly = BinBasisPoly(1, 4, X6_COEFFS)
    blob = poly.to_json_dict()
    assert blob["arity"] == 1 and blob["max_degree"] == 4
    assert [[0], 2, 1] in blob["coeffs"]


def test_fraction_coefficients_are_kept_and_checked():
    half = Fraction(1, 2)
    poly = BinBasisPoly(2, 2, {(1, 0): half, (0, 1): 3, (0, 0): Fraction(0)})
    assert poly.coeffs[(1, 0)] is half
    assert poly.coeffs == {(1, 0): half, (0, 1): Fraction(3)}
    assert type(poly.coeffs[(0, 1)]) is Fraction
    for index in [(1,), (-1, 1), (2, 1)]:
        with pytest.raises(InputError):
            BinBasisPoly(2, 2, {index: Fraction(1)})
