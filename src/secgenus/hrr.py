"""Riemann-Roch engine for divisor twists in dimension at most 4.

chi(D) is computed from the dimension-specific closed form built out of
the truncated Todd class (T_1 = c_1/2, T_2 = (c_1^2 + c_2)/12,
T_3 = c_1 c_2 / 24, with c_1 = -K_X); the degree-n Todd constant is
replaced by chi(O) taken from the declared Hodge numbers, so the model
never needs c_3 or c_4 inputs.  Every division must be exact: a
remainder is a model inconsistency, not a rounding situation.

``h0_via_vanishing`` turns chi into a certified section count under the
one vanishing rule this toolkit trusts: D - K_X nef and big (the
Kawamata-Viehweg regime).  Anything outside that rule must come from a
family oracle or be abstained from.
"""

from __future__ import annotations

from fractions import Fraction

from .binpoly import BinBasisPoly, coefficients_from_oracle
from .errors import AbstainError, InputError, ModelError
from .variety import DivisorClass, VarietyData, c2_pair, h0_exact, intersection_number


def chi_divisor(v: VarietyData, d: DivisorClass) -> int:
    """Euler characteristic of the line bundle with class d.

    Computed as an integer-scaled sum with a single exact division at the
    end; a remainder is a model inconsistency, never rounded away.
    """
    n = v.dim
    c1 = -v.canonical
    if n == 1:
        scaled, denom = v.chi_o + intersection_number(v, [d]), 1
    elif n == 2:
        dd = intersection_number(v, [d, d])
        dk = intersection_number(v, [d, v.canonical])
        scaled, denom = 2 * v.chi_o + dd - dk, 2
    elif n == 3:
        d3 = intersection_number(v, [d, d, d])
        c1d2 = intersection_number(v, [c1, d, d])
        c1c1d = intersection_number(v, [c1, c1, d])
        c2d = c2_pair(v, [d])
        scaled, denom = 12 * v.chi_o + 2 * d3 + 3 * c1d2 + c1c1d + c2d, 12
    else:
        d4 = intersection_number(v, [d, d, d, d])
        c1d3 = intersection_number(v, [c1, d, d, d])
        c1c1d2 = intersection_number(v, [c1, c1, d, d])
        c2d2 = c2_pair(v, [d, d])
        c1c2d = c2_pair(v, [c1, d])
        scaled, denom = 24 * v.chi_o + d4 + 2 * c1d3 + c1c1d2 + c2d2 + c1c2d, 24
    quotient, remainder = divmod(scaled, denom)
    if remainder:
        raise ModelError(
            f"chi({v.divisor_string(d)}) on {v.name} is not an integer: "
            f"{Fraction(scaled, denom)}"
        )
    return quotient


def chi_multi(v: VarietyData, bundles: list[DivisorClass]) -> BinBasisPoly:
    """Binomial-basis expansion of (t_1, ..., t_k) -> chi(t_1 D_1 + ... + t_k D_k)."""
    k = len(bundles)
    if not 1 <= k <= v.dim:
        raise InputError(f"need between 1 and {v.dim} bundles, got {k}")

    def oracle(*point: int) -> int:
        combined = v.zero()
        for t, bundle in zip(point, bundles):
            if t:
                combined = combined + t * bundle
        return chi_divisor(v, combined)

    poly = coefficients_from_oracle(oracle, k, v.dim)
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
