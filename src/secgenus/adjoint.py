"""Adjoint-bundle difference formula and effective non-vanishing checkers.

The central identity expresses the jump h^0(K + L_1 + ... + L_m + L) -
h^0(K + L_1 + ... + L_m) as a signed sum of sectional geometric genera
over index subsets, with a Hodge-number correction.  ``difference_rhs``
computes that genus side; ``difference_lhs`` the section-count side through
certified routes only (vanishing rule first, family oracle second) and
abstains rather than guess.  The remaining operations implement the
specialisation to multiples of K + L, the quartic lower-bound expression
for the second multiple, the recursion-based bound for all multiples,
the second-Chern-class inequality checkers, and the cubic
parametrisation used for three-dimensional images of adjoint fibrations.

The bound checkers return a ``VerificationReport`` titled
``bounds:<name>``.  Every model is a smooth model, so the c_2 checker
abstains only when the positivity of its inputs cannot be certified.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._value import Frozen
from .errors import AbstainError, InputError
from .genus import chi_H_table, genus_from_chi_H
from .hrr import h0_certified
from .report import VerificationReport
from .variety import DivisorClass, VarietyData, c2_pair, intersection_number


class DifferenceRequest(Frozen):
    """Inputs for the difference formula, with positivity certified upfront."""

    __slots__ = __match_args__ = ("variety", "big_bundles", "nef_bundle")

    def __init__(
        self, variety: VarietyData, big_bundles: tuple[DivisorClass, ...], nef_bundle: DivisorClass
    ) -> None:
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "big_bundles", big_bundles)
        object.__setattr__(self, "nef_bundle", nef_bundle)

    @staticmethod
    def build(
        variety: VarietyData,
        big_bundles: list[DivisorClass],
        nef_bundle: DivisorClass,
    ) -> "DifferenceRequest":
        if len(big_bundles) < 1:
            raise InputError("need at least one nef-and-big bundle")
        for idx, bundle in enumerate(big_bundles, start=1):
            if not variety.is_nef_and_big(bundle):
                raise InputError(
                    f"bundle {idx} ({variety.divisor_string(bundle)}) is not nef and big"
                )
        if not variety.is_nef(nef_bundle):
            raise InputError(f"{variety.divisor_string(nef_bundle)} is not nef")
        return DifferenceRequest(variety, tuple(big_bundles), nef_bundle)


def difference_rhs(req: DifferenceRequest) -> int:
    """Genus side of the difference formula.

    sum_{s=0}^{n-1} sum over strictly increasing (n-s-1)-tuples from the
    big bundles of g_s(L_{k_1}, ..., L_{k_{n-s-1}}, L), minus
    sum_{s=0}^{n-2} C(m-1, n-s-2) h^s(O); the inner sum is empty when the
    tuple length exceeds m and degenerates to g_{n-1}(L) at s = n-1.
    Every g_s is read from one ``chi_H_table`` over [L_1, ..., L_m, L]
    that keeps the sub-lists with at most n - 1 big bundles: 2^(m+1) chi
    values for m < n.
    """
    v = req.variety
    n = v.dim
    m = len(req.big_bundles)
    table = chi_H_table(v, [*req.big_bundles, req.nef_bundle], max_size=n - 1)
    total = sum(
        genus_from_chi_H(v, n - mask.bit_count(), chi_h)
        for mask, chi_h in table.items()
        if mask >> m  # the sub-list holds L
    )
    for s in range(n - 1):
        total -= comb(m - 1, n - s - 2) * v.hodge[s]
    return total


def difference_lhs(req: DifferenceRequest) -> int:
    """Section-count side, through certified routes only."""
    v = req.variety
    stacked = v.canonical
    for bundle in req.big_bundles:
        stacked = stacked + bundle
    upper, _ = h0_certified(v, stacked + req.nef_bundle)
    lower, _ = h0_certified(v, stacked)
    return upper - lower


def jump_rhs(v: VarietyData, ell: DivisorClass, m: int) -> int:
    """Genus side of the difference of consecutive multiples of K + L.

    g_3(K+L) + g_2(K+L, (m-2)K + (m-1)L) - h^2(O), for 4-folds and m >= 2;
    both genera come from one ``chi_H_table`` of 4 chi values.
    """
    if v.dim != 4:
        raise InputError("the multiple-difference specialisation is 4-fold only")
    if m < 2:
        raise InputError(f"m must be at least 2, got {m}")
    kl = v.canonical + ell
    partner = (m - 2) * v.canonical + (m - 1) * ell
    table = chi_H_table(v, [kl, partner])
    return genus_from_chi_H(v, 3, table[0b01]) + genus_from_chi_H(v, 2, table[0b11]) - v.hodge[2]


def multiple_lower_bound(m: int) -> int:
    """(m-1)(m-2)(m^2 + 3m + 6)/12 + 1, exactly.

    The product is always divisible by 12: (m-1)(m-2) and m^2 + 3m + 6 =
    m(m+3) + 6 are both even, and 3 divides m^2, m-1 or m-2 according to m
    mod 3 (m^2 + 3m + 6 = m^2 mod 3), so ``//`` drops nothing.
    """
    if m < 2:
        raise InputError(f"bound defined for m >= 2, got {m}")
    return (m - 1) * (m - 2) * (m * m + 3 * m + 6) // 12 + 1


def _add_bound(
    report: VerificationReport,
    v: VarietyData,
    ell: DivisorClass,
    kind: str,
    m: int,
    lhs: int | None = None,
    rhs: int | None = None,
    note: str = "",
) -> None:
    """One ``kind[m=...]`` check asserting lhs >= rhs; abstained when lhs is None."""
    report.add(
        f"{kind}[m={m}]",
        None if lhs is None else lhs >= rhs,
        expected="" if rhs is None else f">= {rhs}",
        actual="(abstained)" if lhs is None else lhs,
        inputs={"variety": v.name, "L": v.divisor_string(ell), "m": m},
        note=note,
    )


def check_multiple_bound(v: VarietyData, ell: DivisorClass, m_max: int) -> VerificationReport:
    """Verify the recursion-based lower bound on h^0(m(K+L)) for m = 2..m_max.

    Requires declared kappa(X) >= 0 and K + L nef.  Also checks the proof
    recursion F(t) - F(t-1) >= (t-1)^2 with F(t) the consecutive jump.
    The report is titled ``bounds:<name>`` with one ``h0-bound[m=...]`` or
    ``recursion[m=...]`` check per row; a row's certification route is its
    note.
    """
    if v.kappa_x is None:
        raise AbstainError(f"kappa(X) undeclared on {v.name}")
    if v.kappa_x < 0:
        raise InputError(f"bound suite needs kappa(X) >= 0, {v.name} declares {v.kappa_x}")
    kl = v.canonical + ell
    if not v.is_nef(kl):
        raise InputError(f"K + L is not nef on {v.name} for L = {v.divisor_string(ell)}")

    report = VerificationReport(title=f"bounds:{v.name}")
    counts: dict[int, int] = {}
    routes: dict[int, str] = {}
    for t in range(1, m_max + 1):
        try:
            counts[t], routes[t] = h0_certified(v, t * kl)
        except AbstainError as exc:
            _add_bound(report, v, ell, "h0-bound", t, note=str(exc))
    for m in range(2, m_max + 1):
        if m in counts:
            _add_bound(
                report, v, ell, "h0-bound", m, counts[m], multiple_lower_bound(m), routes[m]
            )
    for t in range(3, m_max + 1):
        if not all(u in counts for u in (t, t - 1, t - 2)):
            _add_bound(report, v, ell, "recursion", t)
            continue
        f_t = counts[t] - counts[t - 1]
        f_prev = counts[t - 1] - counts[t - 2]
        _add_bound(report, v, ell, "recursion", t, f_t - f_prev, (t - 1) ** 2)
    return report


def second_jump_expression(v: VarietyData, ell: DivisorClass) -> Fraction:
    """Quartic lower-bound expression for h^0(2(K+L)) - h^0(K+L) on 4-folds.

    (1/192) (K+L) { 32 K (K+2L)^2 + 20 K (K+2L) L + 56 (K+L) L^2 + 55 L^3 }.
    """
    if v.dim != 4:
        raise InputError("expression is 4-fold only")
    k = v.canonical
    kl = k + ell
    k2l = k + 2 * ell
    bracket = (
        32 * intersection_number(v, [kl, k, k2l, k2l])
        + 20 * intersection_number(v, [kl, k, k2l, ell])
        + 56 * intersection_number(v, [kl, kl, ell, ell])
        + 55 * intersection_number(v, [kl, ell, ell, ell])
    )
    return Fraction(bracket, 192)


def nonvanishing_report(v: VarietyData, ell: DivisorClass, m_max: int) -> VerificationReport:
    """Case dispatch on declared kappa(K+L): assert h^0(m(K+L)) > 0.

    kappa in {0,1,2}: all m >= 1; kappa = 3: m >= 2; kappa = 4: m >= 3.
    One ``nonvanishing[m=...]`` check per multiple up to ``m_max`` (an
    InputError when that leaves none), in a report titled ``bounds:<name>``;
    with declared kappa(X) >= 0 the checks of ``check_multiple_bound`` and
    one "second-multiple expression >= 111/192" row are appended, as the
    ``bounds`` suite asserts them.  An L that is not ample is an InputError,
    raised before any declaration is read.
    """
    if not v.is_ample(ell):
        raise InputError(f"L = {v.divisor_string(ell)} is not ample on {v.name}")
    kl = v.canonical + ell
    if not v.is_nef(kl):
        raise InputError(f"K + L is not nef on {v.name} for L = {v.divisor_string(ell)}")
    decl = v.declaration_for(ell)
    if decl is None or 1 not in decl.kappa or decl.kappa[1] is None:
        raise AbstainError(
            f"kappa(K+L) undeclared on {v.name} for L = {v.divisor_string(ell)}"
        )
    kappa_kl = decl.kappa[1]
    if kappa_kl < 0:
        raise InputError(
            f"declared kappa(K+L) = -inf contradicts nef K+L on {v.name}"
        )
    if kappa_kl <= 2:
        m_start = 1
    elif kappa_kl == 3:
        m_start = 2
    else:
        m_start = 3
    if m_max < m_start:
        raise InputError(f"m_max = {m_max} is below the asserted start m >= {m_start} on {v.name}")

    report = VerificationReport(title=f"bounds:{v.name}")
    report.annotations.append(f"declared kappa(K+L) = {kappa_kl}; asserting m >= {m_start}")
    for m in range(m_start, m_max + 1):
        try:
            count, route = h0_certified(v, m * kl)
        except AbstainError as exc:
            _add_bound(report, v, ell, "nonvanishing", m, note=str(exc))
            continue
        _add_bound(report, v, ell, "nonvanishing", m, count, 1, route)
    if v.kappa_x is not None and v.kappa_x >= 0:
        report.extend(check_multiple_bound(v, ell, m_max))
        expr = second_jump_expression(v, ell)
        report.add(
            "second-multiple expression >= 111/192",
            expr >= Fraction(111, 192),
            expected=">= 111/192",
            actual=expr,
        )
        report.annotations.append(
            "kappa(X) >= 0: recursion bound suite included; for smooth 4-folds the "
            "smallest uniformly non-vanishing multiple is at most 6 (annotation only, "
            "not a computed quantity)"
        )
    return report


class C2Check(Frozen):
    """Outcome of the second-Chern-class lower-bound inequalities."""

    __slots__ = __match_args__ = ("lhs", "rhs_main", "rhs_alt", "holds_main", "holds_alt")

    def __init__(
        self, lhs: int, rhs_main: Fraction, rhs_alt: Fraction, holds_main: bool, holds_alt: bool
    ) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs_main", rhs_main)
        object.__setattr__(self, "rhs_alt", rhs_alt)
        object.__setattr__(self, "holds_main", holds_main)
        object.__setattr__(self, "holds_alt", holds_alt)


def c2_lower_bound_check(
    v: VarietyData,
    ell: DivisorClass,
    a1: DivisorClass,
    a2: DivisorClass,
) -> C2Check:
    """Exact evaluation of the two c_2 lower bounds against nef classes.

    The main inequality (coefficient -(1/8)(18 K L + 27 L^2)) is asserted
    by the suites; the alternative (-(1/3)(6 K L + 8 L^2)) is only
    reported, since the dichotomy it belongs to has a second branch that
    numerical data cannot exclude.  Every model is a smooth model, so the
    check abstains only when K + L or A1, A2 cannot be certified.
    """
    if not v.is_nef_and_big(v.canonical + ell):
        raise AbstainError(f"K + L not certified nef and big on {v.name}")
    if not (v.is_nef(a1) and v.is_nef(a2)):
        raise AbstainError("A1, A2 must be certified nef")
    lhs = c2_pair(v, [a1, a2])
    klaa = intersection_number(v, [v.canonical, ell, a1, a2])
    llaa = intersection_number(v, [ell, ell, a1, a2])
    rhs_main = -Fraction(18 * klaa + 27 * llaa, 8)
    rhs_alt = -Fraction(6 * klaa + 8 * llaa, 3)
    return C2Check(
        lhs=lhs,
        rhs_main=rhs_main,
        rhs_alt=rhs_alt,
        holds_main=lhs >= rhs_main,
        holds_alt=lhs >= rhs_alt,
    )


class CubicParams(Frozen):
    """Parameters of chi(tH) = d (t-1) (t^2 + a t + b) and derived genera."""

    __slots__ = __match_args__ = ("d", "a", "b", "g1", "g2", "gate_value", "gate_holds")

    def __init__(
        self,
        d: Fraction,
        a: Fraction,
        b: Fraction,
        g1: int,
        g2: int,
        gate_value: Fraction,  # 2 d (2a + 1); non-negative iff a >= -1/2
        gate_holds: bool,
    ) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "gate_value", gate_value)
        object.__setattr__(self, "gate_holds", gate_holds)


def cubic_params(chi_coeffs: tuple[int, int, int, int], h1: int) -> CubicParams:
    """Solve the binomial coefficients of a cubic chi(tH) with chi(H) = 0.

    Input is (chi_0, chi_1, chi_2, chi_3) in the one-variable binomial
    basis.  The factorisation chi(tH) = d (t-1)(t^2 + a t + b) pins down

        chi_3 = 6d,   chi_2 + chi_3 = 2d(a-1),
        6 chi_1 + 3 chi_2 + 2 chi_3 = 6d(b-a),   chi_0 = -bd,

    and the sectional genera g_1 = 1 - chi_2, g_2 = -1 + h^1 + chi_1.
    The second genus also equals d(b - 2a + 2) - 1; both expressions are
    computed and must agree (they differ exactly by h^1, so the
    parametrisation requires the h^1 = 0 fibration context).  The sign
    gate 3 chi_3 + 2 chi_2 = 2d(2a+1) >= 0 (i.e. a >= -1/2) is reported,
    not asserted.
    """
    if len(chi_coeffs) != 4:
        raise InputError("need exactly the four coefficients (chi_0, ..., chi_3)")
    chi0, chi1, chi2, chi3 = (Fraction(c) for c in chi_coeffs)
    if chi3 <= 0:
        raise InputError(f"leading coefficient must be positive (got {chi3}); d = chi_3 / 6 > 0")
    d = chi3 / 6
    a = Fraction(chi2 + chi3, 2 * d) + 1
    b = -chi0 / d
    if 6 * chi1 + 3 * chi2 + 2 * chi3 != 6 * d * (b - a):
        raise InputError(
            "inconsistent coefficients: no (d, a, b) solves all four relations"
        )
    g1 = 1 - chi2
    g2 = -1 + h1 + chi1
    g2_alt = d * (b - 2 * a + 2) - 1
    if g2 != g2_alt:
        raise InputError(
            f"second-genus expressions disagree ({g2} vs {g2_alt}); "
            "the parametrisation requires h^1 = 0"
        )
    gate_value = 2 * d * (2 * a + 1)
    return CubicParams(
        d=d,
        a=a,
        b=b,
        g1=int(g1),
        g2=int(g2),
        gate_value=gate_value,
        gate_holds=gate_value >= 0,
    )
