"""Riemann-Roch engine for divisor twists in dimension at most 4.

chi(D) is computed from the dimension-specific closed form built out of
the truncated Todd class (T_1 = c_1/2, T_2 = (c_1^2 + c_2)/12,
T_3 = c_1 c_2 / 24, with c_1 = -K_X); the degree-n Todd constant is
replaced by chi(O) taken from the declared Hodge numbers, so the model
never needs c_3 or c_4 inputs.  Scaled by its denominator (1, 2, 12 or
24 in dimension 1..4) the closed form is an integer polynomial in the
generator coordinates of D, compiled once per model into a nested Horner
form (``VarietyData.chi_polynomial``; ``variety._compile`` says how).
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

from fractions import Fraction

from .binpoly import BinBasisPoly
from .errors import AbstainError, InputError, ModelError
from .variety import DivisorClass, VarietyData, _check_length, _horner, h0_exact

# t^a = sum_p (-1)^(a-p) S(a, p) p! C(t + p - 1, p), with S the Stirling
# numbers of the second kind; row a maps p to its coefficient.
_POWER_ROWS = ({0: 1}, {1: 1}, {1: -1, 2: 2}, {1: 1, 2: -6, 3: 6}, {1: -1, 2: 14, 3: -36, 4: 24})


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


def _vanishing_count(v: VarietyData, d: DivisorClass) -> int:
    """chi(D) as h^0(D) once D - K_X is known nef and big; a negative count is a model error."""
    value = chi_divisor(v, d)
    if value < 0:
        raise ModelError(
            f"certified h^0({v.divisor_string(d)}) on {v.name} came out negative ({value})"
        )
    return value


def h0_via_vanishing(v: VarietyData, d: DivisorClass) -> int:
    """h^0(D) = chi(D), certified by D - K_X nef and big; else abstain."""
    if not v.is_nef_and_big(d - v.canonical):
        raise AbstainError(
            f"vanishing not certifiable for {v.divisor_string(d)} on {v.name}: "
            "D - K_X is not nef and big"
        )
    return _vanishing_count(v, d)


def h0_certified(v: VarietyData, d: DivisorClass) -> tuple[int, str]:
    """Best certified section count: vanishing rule first, family oracle second.

    Returns the count together with the certification route used: chi(D)
    when D - K_X is nef and big (the count step ``h0_via_vanishing`` uses),
    else the family oracle.  Raises AbstainError when neither route applies.
    """
    if v.is_nef_and_big(d - v.canonical):
        return _vanishing_count(v, d), "kawamata-viehweg"
    return h0_exact(v, d), "family-oracle"
