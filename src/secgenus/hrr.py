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
``chi_multi`` reads the binomial-basis expansion of
t -> chi(t_1 D_1 + ... + t_k D_k), a map of total degree <= n, from the
scaled integer values of that form at the C(k + n, n) points t = -q of
the simplex (``binpoly.simplex``, ``binpoly.backward_differences``) and
tests each coefficient for divisibility by the denominator.  The
coefficients are integers exactly when that map is integer-valued on
Z^k, so an expansion along a pull-back on which chi is not integer-valued
raises.  It serves ``chi --expand``; ``validate`` and ``verify`` decide
integrality on the whole lattice instead (``variety.integrality_row``).

``h0_certified`` is the one function that turns a class into a certified
section count.  It decides the route: chi(D) under the one vanishing rule
this toolkit trusts, D - K_X nef and big (the Kawamata-Viehweg regime),
else the family oracle ``h0_exact``, which abstains where it has no rule.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .binpoly import BinBasisPoly, backward_differences, simplex
from .errors import InputError, ModelError
from .variety import DivisorClass, VarietyData, _check_length, _horner, h0_exact


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


def chi_multi(v: VarietyData, bundles: list[DivisorClass]) -> BinBasisPoly:
    """Binomial-basis expansion of (t_1, ..., t_k) -> chi(t_1 D_1 + ... + t_k D_k)."""
    k = len(bundles)
    if not 1 <= k <= v.dim:
        raise InputError(f"need between 1 and {v.dim} bundles, got {k}")
    _check_length(v, *bundles)
    chi = v.chi_polynomial
    columns = list(zip(*(b.coeffs for b in bundles)))  # generator j -> (D_1[j], ..., D_k[j])
    points = simplex(k, v.dim)  # at q: chi.denom * chi(-q_1 D_1 - ... - q_k D_k)
    values = [_horner(chi.horner, tuple([-sum(map(mul, q, c)) for c in columns])) for q in points]
    scaled = backward_differences(points, values)
    if any(c % chi.denom for c in scaled):
        shown = sorted((p, Fraction(c, chi.denom)) for p, c in zip(points, scaled) if c)
        raise ModelError(f"chi expansion on {v.name} has non-integer coefficients: {dict(shown)}")
    return BinBasisPoly(k, v.dim, {p: c // chi.denom for p, c in zip(points, scaled) if c})


def h0_certified(v: VarietyData, d: DivisorClass) -> tuple[int, str]:
    """Certified h^0(D) with its route: chi(D) when D - K_X is nef and big, else the oracle.

    A negative chi on the vanishing route is a model error; where neither
    route applies, ``h0_exact`` raises the AbstainError.
    """
    if not v.is_nef_and_big(d - v.canonical):
        return h0_exact(v, d), "family-oracle"
    value = chi_divisor(v, d)
    if value < 0:
        raise ModelError(
            f"certified h^0({v.divisor_string(d)}) on {v.name} came out negative ({value})"
        )
    return value, "kawamata-viehweg"
