"""Riemann-Roch engine for divisor twists in dimension at most 4.

chi(D) is computed from the dimension-specific closed form built out of
the truncated Todd class (T_1 = c_1/2, T_2 = (c_1^2 + c_2)/12,
T_3 = c_1 c_2 / 24, with c_1 = -K_X); the degree-n Todd constant is
replaced by chi(O) taken from the declared Hodge numbers, so the model
never needs c_3 or c_4 inputs.  Scaled by its denominator (1, 2, 12 or
24 in dimension 1..4) the closed form is an integer polynomial in the
generator coordinates x of D = x_1 G_1 + ... + x_g G_g, over the
monomials of degree <= n (15 of them for two generators on a 4-fold):

    denom * chi(D) = sum over exponent tuples a of coeff_a x^a.

``compile_chi`` builds those coefficients from the model's intersection
form and c_2 pairings; each model compiles once, on first use
(``VarietyData.chi_polynomial``).  ``chi_divisor`` evaluates the
polynomial and divides once: a remainder is a model inconsistency, not a
rounding situation.  ``chi_multi`` substitutes D = t_1 D_1 + ... + t_k D_k
and changes from the monomial to the binomial basis, axis by axis, with

    t^a = sum_{p=1..a} (-1)^(a-p) S(a, p) p! C(t + p - 1, p)   (a >= 1)

(S the Stirling numbers of the second kind).  Its coefficients are
integers exactly when t -> chi(t_1 D_1 + ... + t_k D_k) is integer-valued
on Z^k, so a model whose chi is not integer-valued fails there, where a
pointwise evaluation on a grid could only raise.

``h0_via_vanishing`` turns chi into a certified section count under the
one vanishing rule this toolkit trusts: D - K_X nef and big (the
Kawamata-Viehweg regime).  Anything outside that rule must come from a
family oracle or be abstained from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from operator import add

from .binpoly import BinBasisPoly
from .errors import AbstainError, InputError, ModelError
from .variety import (
    DivisorClass,
    VarietyData,
    _check_length,
    c2_pair,
    h0_exact,
    intersection_number,
)

# dim -> (denominator, terms of denom * (chi(D) - chi(O))); a term
# (weight, pairs with c_2, number of c_1 factors) stands for
# weight * (c_2 or 1) * c_1^j * D^(rest).
_TODD = {
    1: (1, ((1, False, 0),)),
    2: (2, ((1, False, 0), (1, False, 1))),
    3: (12, ((2, False, 0), (3, False, 1), (1, False, 2), (1, True, 0))),
    4: (24, ((1, False, 0), (2, False, 1), (1, False, 2), (1, True, 0), (1, True, 1))),
}


# t^a = sum_p (-1)^(a-p) S(a, p) p! C(t + p - 1, p), with S the Stirling
# numbers of the second kind; row a maps p to its coefficient.
_POWER_ROWS = ({0: 1}, {1: 1}, {1: -1, 2: 2}, {1: 1, 2: -6, 3: 6}, {1: -1, 2: 14, 3: -36, 4: 24})


@dataclass(frozen=True)
class CompiledChi:
    """denom * chi(x_1 G_1 + ... + x_g G_g) = sum of coeff * x^exps over ``terms``."""

    denom: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]


def compile_chi(v: VarietyData) -> CompiledChi:
    """The closed form as an integer polynomial in the generator coordinates.

    Each coefficient pairs c_1 and c_2 with one monomial of generators, so
    a monomial missing from either table raises the pairing's ModelError.
    """
    g = len(v.generators)
    denom, todd = _TODD[v.dim]
    c1 = -v.canonical
    units = [v.generator(name) for name in v.generators]
    coeffs = {(0,) * g: denom * v.chi_o}
    for weight, with_c2, j in todd:
        pair = c2_pair if with_c2 else intersection_number
        degree = v.dim - 2 * with_c2 - j
        for combo in combinations_with_replacement(range(g), degree):
            exps = tuple(combo.count(i) for i in range(g))
            multinomial = factorial(degree) // prod(map(factorial, exps))
            value = weight * multinomial * pair(v, [c1] * j + [units[i] for i in combo])
            coeffs[exps] = coeffs.get(exps, 0) + value
    return CompiledChi(denom, tuple((c, exps) for exps, c in coeffs.items() if c))


def chi_divisor(v: VarietyData, d: DivisorClass) -> int:
    """Euler characteristic of the line bundle with class d.

    Evaluates the compiled integer polynomial with a single exact division
    at the end; a remainder is a model inconsistency, never rounded away.
    """
    _check_length(v, d)
    chi = v.chi_polynomial
    x = d.coeffs
    scaled = sum(c * prod(map(pow, x, exps)) for c, exps in chi.terms)
    quotient, remainder = divmod(scaled, chi.denom)
    if remainder:
        raise ModelError(
            f"chi({v.divisor_string(d)}) on {v.name} is not an integer: "
            f"{Fraction(scaled, chi.denom)}"
        )
    return quotient


def _times(f: dict, g: dict) -> dict:
    """Product of two polynomials keyed by exponent tuples."""
    out: dict = {}
    for a, x in f.items():
        for b, y in g.items():
            key = tuple(map(add, a, b))
            out[key] = out.get(key, 0) + x * y
    return out


def chi_multi(v: VarietyData, bundles: list[DivisorClass]) -> BinBasisPoly:
    """Binomial-basis expansion of (t_1, ..., t_k) -> chi(t_1 D_1 + ... + t_k D_k)."""
    k = len(bundles)
    if not 1 <= k <= v.dim:
        raise InputError(f"need between 1 and {v.dim} bundles, got {k}")
    _check_length(v, *bundles)
    chi = v.chi_polynomial

    # x_j = sum_i t_i D_i[j]: each generator coordinate as a linear form in t
    forms = [
        {
            tuple(int(i == axis) for i in range(k)): b.coeffs[j]
            for axis, b in enumerate(bundles)
            if b.coeffs[j]
        }
        for j in range(len(v.generators))
    ]
    coeffs: dict = {}  # monomial basis, scaled by chi.denom
    for c, exps in chi.terms:
        term = {(0,) * k: c}
        for form, e in zip(forms, exps):
            for _ in range(e):
                term = _times(term, form)
        for a, value in term.items():
            coeffs[a] = coeffs.get(a, 0) + value

    for axis in range(k):  # t_axis^a -> binomial basis via _POWER_ROWS
        changed: dict = {}
        for a, value in coeffs.items():
            for p, factor in _POWER_ROWS[a[axis]].items():
                key = a[:axis] + (p,) + a[axis + 1 :]
                changed[key] = changed.get(key, 0) + factor * value
        coeffs = changed

    poly = BinBasisPoly(k, v.dim, {p: Fraction(c, chi.denom) for p, c in coeffs.items()})
    if not poly.is_integral():
        raise ModelError(
            f"chi expansion on {v.name} has non-integer coefficients: {poly.coeffs}"
        )
    return poly


def h0_via_vanishing(v: VarietyData, d: DivisorClass) -> int:
    """h^0(D) = chi(D), certified by D - K_X nef and big; else abstain."""
    if not v.is_nef_and_big(d - v.canonical):
        raise AbstainError(
            f"vanishing not certifiable for {v.divisor_string(d)} on {v.name}: "
            "D - K_X is not nef and big"
        )
    value = chi_divisor(v, d)
    if value < 0:
        raise ModelError(
            f"certified h^0({v.divisor_string(d)}) on {v.name} came out negative ({value})"
        )
    return value


def h0_certified(v: VarietyData, d: DivisorClass) -> tuple[int, str]:
    """Best certified section count: vanishing rule first, family oracle second.

    Returns the count together with the certification route used; raises
    AbstainError when neither route applies.
    """
    try:
        return h0_via_vanishing(v, d), "kawamata-viehweg"
    except AbstainError:
        pass
    return h0_exact(v, d), "family-oracle"
