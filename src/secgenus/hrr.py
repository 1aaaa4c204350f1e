"""Riemann-Roch engine for divisor twists in dimension at most 4.

chi(D) is computed from the dimension-specific closed form built out of
the truncated Todd class (T_1 = c_1/2, T_2 = (c_1^2 + c_2)/12,
T_3 = c_1 c_2 / 24, with c_1 = -K_X); the degree-n Todd constant is
replaced by chi(O) taken from the declared Hodge numbers, so the model
never needs c_3 or c_4 inputs.  Scaled by its denominator (1, 2, 12 or
24 in dimension 1..4) the closed form is an integer polynomial in the
generator coordinates x of D = x_1 G_1 + ... + x_g G_g, over the
monomials of degree <= n (15 of them for two generators on a 4-fold).
It is kept in nested Horner form, one level per generator:

    denom * chi(D) = P(x_1, ..., x_g) = sum_a x_1^a P_a(x_2, ..., x_g),

with P_a nested the same way in x_2, ..., x_g.  ``compile_chi`` writes
that form straight from the model's pairing tables: it reads each table
once, as F_0(e) = table[e], gets the form of each further factor of c_1
by contracting the previous one, F_j(e) = sum_i c_1[i] * F_(j-1)(e + u_i),
and adds weight * multinomial(e) * F_j(e) to the coefficient of x^e,
building no divisor classes; each model compiles once, on first use
(``VarietyData.chi_polynomial``).  ``_nest`` and ``_horner`` live in
``variety``, which keeps each model's D^n form the same way.
``chi_divisor`` evaluates it by Horner's rule in integers and divides
once: a remainder is a model inconsistency, not a rounding situation.
``chi_multi`` substitutes D = t_1 D_1 + ... + t_k D_k by Horner's rule
on polynomials in t, tests the integer coefficients for divisibility by
the denominator, and changes from the monomial to the binomial basis,
axis by axis, with

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
from math import factorial, prod

from .binpoly import BinBasisPoly
from .errors import AbstainError, InputError, ModelError
from .variety import (
    DivisorClass,
    VarietyData,
    _check_length,
    _horner,
    _missing_monomial,
    _monomials,
    _nest,
    h0_exact,
)

# dim -> (denominator, terms of denom * (chi(D) - chi(O))); a term
# (weight, pairs with c_2, number of c_1 factors) stands for
# weight * (c_2 or 1) * c_1^j * D^(rest).  ``compile_chi`` contracts each
# term's form from the one before it, so within each table (with or without
# c_2) the terms must come with j = 0, 1, 2 in this order.
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
    """denom * chi(x_1 G_1 + ... + x_g G_g) as a nested Horner form (``variety._nest``)."""

    denom: int
    horner: tuple


def compile_chi(v: VarietyData) -> CompiledChi:
    """The closed form as an integer polynomial in the generator coordinates.

    The coefficient of x^e in a term c_1^j D^(rest) (or c_2 c_1^j D^(rest))
    is multinomial(e) * F_j(e), where F_0 is the pairing table and
    F_j(e) = sum_i c_1[i] * F_(j-1)(e + u_i) contracts the previous term
    once with c_1.  Each table is read once, at j = 0, so a monomial
    missing from either table raises the same ModelError as the pairing
    functions would.
    """
    g = len(v.generators)
    denom, todd = _TODD[v.dim]
    c1 = [(i, -k) for i, k in enumerate(v.canonical.coeffs) if k]
    terms = {(0,) * g: denom * v.chi_o}
    for weight, with_c2, j in todd:
        degree = v.dim - 2 * with_c2 - j
        if j == 0:
            table = v.c2_pairings if with_c2 else v.intersection_form
            what = "c2" if with_c2 else "intersection"
            form = {}
            for key in _monomials(g, degree):
                if key not in table:
                    raise _missing_monomial(v, what, key)
                form[key] = table[key]
        else:
            form = {
                e: sum([c * form[(*e[:i], e[i] + 1, *e[i + 1 :])] for i, c in c1])
                for e in _monomials(g, degree)
            }
        for e, value in form.items():
            multinomial = factorial(degree) // prod(map(factorial, e))
            terms[e] = terms.get(e, 0) + weight * multinomial * value
    return CompiledChi(denom, _nest(terms, g))


def chi_divisor(v: VarietyData, d: DivisorClass) -> int:
    """Euler characteristic of the line bundle with class d.

    Evaluates the compiled integer polynomial with a single exact division
    at the end; a remainder is a model inconsistency, never rounded away.
    """
    if len(d.coeffs) != len(v.generators):
        _check_length(v, d)  # raises; tested inline on this hot path
    chi = v.chi_polynomial
    scaled = _horner(chi.horner, d.coeffs)
    quotient, remainder = divmod(scaled, chi.denom)
    if remainder:
        raise ModelError(
            f"chi({v.divisor_string(d)}) on {v.name} is not an integer: "
            f"{Fraction(scaled, chi.denom)}"
        )
    return quotient


def _times(f: dict, g: dict) -> dict:
    """Product of two polynomials keyed by packed exponents (see ``chi_multi``)."""
    out: dict = {}
    for a, x in f.items():
        for b, y in g.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return out


def _substitute(form: tuple, forms: list[dict]) -> dict:
    """A nested Horner form with x_j replaced by the polynomial ``forms[j]``, by Horner's rule."""
    value: dict = {}
    for entry in reversed(form):
        if value:
            value = _times(value, forms[0])
        if len(forms) == 1:
            if entry:
                value[0] = value.get(0, 0) + entry
        else:
            for a, c in _substitute(entry, forms[1:]).items():
                value[a] = value.get(a, 0) + c
    return value


def chi_multi(v: VarietyData, bundles: list[DivisorClass]) -> BinBasisPoly:
    """Binomial-basis expansion of (t_1, ..., t_k) -> chi(t_1 D_1 + ... + t_k D_k).

    A monomial t^a is keyed by the integer sum of a_i * base^i: no
    exponent exceeds dim < base, so a product of monomials is the sum of
    their keys.
    """
    k = len(bundles)
    if not 1 <= k <= v.dim:
        raise InputError(f"need between 1 and {v.dim} bundles, got {k}")
    _check_length(v, *bundles)
    chi = v.chi_polynomial
    base = v.dim + 1
    units = [base**axis for axis in range(k)]

    # x_j = sum_i t_i D_i[j]: each generator coordinate as a linear form in t
    forms = [
        {unit: b.coeffs[j] for unit, b in zip(units, bundles) if b.coeffs[j]}
        for j in range(len(v.generators))
    ]
    coeffs = _substitute(chi.horner, forms)  # monomial basis, scaled by chi.denom

    for unit in units:  # t_axis^a -> binomial basis via _POWER_ROWS
        changed: dict = {}
        for a, value in coeffs.items():
            e = a // unit % base
            rest = a - e * unit
            for p, factor in _POWER_ROWS[e].items():
                key = rest + p * unit
                changed[key] = changed.get(key, 0) + factor * value
        coeffs = changed

    denom = chi.denom
    indices = {a: tuple([a // unit % base for unit in units]) for a in coeffs}
    if any(c % denom for c in coeffs.values()):
        shown = dict(sorted((indices[a], Fraction(c, denom)) for a, c in coeffs.items() if c))
        raise ModelError(f"chi expansion on {v.name} has non-integer coefficients: {shown}")
    integral = {indices[a]: Fraction(c // denom) for a, c in coeffs.items() if c}
    return BinBasisPoly(k, v.dim, integral)


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
