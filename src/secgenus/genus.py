"""Sectional H-arithmetic genus and sectional geometric genus.

For a variety X of dimension n, an index 0 <= i <= n and line bundles
L_1, ..., L_{n-i}, the i-th sectional H-arithmetic genus is the all-ones
coefficient of the multivariate Euler characteristic expansion

    chi_i^H(X, L_1, ..., L_{n-i}) = chi_{1,...,1},

(and chi(O) itself when i = n), and the i-th sectional geometric genus is

    g_i = (-1)^i (chi_i^H - chi(O)) + sum_{j=0}^{n-i} (-1)^{n-i-j} h^{n-j}(O).

The structure sheaf is fixed throughout; no other coherent sheaf enters
any in-scope computation.  Zero divisor classes are admitted (the
coefficient extraction is still well defined), which the adjoint-bundle
difference formulas need for degenerate twists.

Only that coefficient is needed, and by inclusion-exclusion over the
k = n - i bundles (Stanley, Enumerative Combinatorics I, 1.9) it is

    chi_{1,...,1} = sum over subsets S of {1..k} of (-1)^|S| chi(-sum_{j in S} L_j):

2^k evaluations of chi (at most 16 on a 4-fold), where the full expansion
(``hrr.chi_multi``) reads C(k + n, n) points.  With no bundles (i = n) it is chi(O).

The same 2^k values give chi^H of every sub-list at once.
``chi_H_table`` reads the model's compiled form (``VarietyData.chi_polynomial``)
in scaled integers: denom * chi at each subset sum, divided exactly once
per point (at the first remainder, ``chi_divisor`` raises the ModelError
that names the class).  It then runs one in-place Moebius pass over the
subset lattice, k 2^(k-1) subtractions (entry S becomes entry S-{j}
minus entry S, for each j in S), so entry S is chi^H of the sub-list S.
The difference formula sums genera over sub-lists with at most n - 1 of
its m big bundles, so its table keeps only those (a down-closed family,
on which the pass still works): 2 sum_{t<n} C(m, t) values, never more
than the 2^(t+1) per genus term of the separate sums.

Two closed forms for dimension 4 accompany the definition: a trilinear
form for g_1 and the adjoint expansion for g_2(X, K+L, K+L).  Both are
validated against the definition by the verification suites.  The
additivity residual (``additivity_residual``) of the three-term
decomposition rule is zero for every function chi, since backward
differences obey D_{A+B} = D_A + D_B - D_A D_B; it tests this module's
inclusion-exclusion and sign bookkeeping, not the model.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from .errors import InputError, ModelError
from .hrr import chi_divisor
from .variety import DivisorClass, VarietyData, _check_length, _horner, c2_pair, intersection_number


def chi_H_table(
    v: VarietyData, bundles: list[DivisorClass], max_size: int | None = None
) -> dict[int, int]:
    """chi^H of every sub-list of ``bundles``, keyed by bit mask (bit j: bundle j).

    With ``max_size``, only sub-lists holding at most that many of the
    bundles before the last one are kept; the last bundle is free.
    """
    _check_length(v, *bundles)
    capped = ((1 << len(bundles)) - 1) >> 1 if max_size is not None else 0
    points = {0: (0,) * len(v.generators)}  # mask -> coordinates of minus the sum of its bundles
    for j, bundle in enumerate(bundles):
        bit = 1 << j
        for mask, point in list(points.items()):
            if not bit & capped or (mask & capped).bit_count() < max_size:
                points[mask | bit] = tuple(map(sub, point, bundle.coeffs))
    chi, table = v.chi_polynomial, {}
    for mask, point in points.items():  # denom * chi at each point, divided exactly
        table[mask], remainder = divmod(_horner(chi.horner, point), chi.denom)
        if remainder:
            chi_divisor(v, DivisorClass(point))  # raises the ModelError that names the class
    # Moebius pass: a backward difference along each bundle in turn
    for j in range(len(bundles)):
        bit = 1 << j
        for mask in table:
            if mask & bit:
                table[mask] = table[mask ^ bit] - table[mask]
    return table


def chi_H_i(v: VarietyData, i: int, bundles: list[DivisorClass]) -> int:
    """The i-th sectional H-arithmetic genus (all-ones chi coefficient)."""
    n = v.dim
    if not 0 <= i <= n:
        raise InputError(f"index i must be in 0..{n}, got {i}")
    if len(bundles) != n - i:
        raise InputError(f"need {n - i} bundles for i={i} on {v.name}, got {len(bundles)}")
    return chi_H_table(v, bundles)[(1 << len(bundles)) - 1]


def genus_from_chi_H(v: VarietyData, i: int, chi_h: int) -> int:
    """g_i from chi_i^H: (-1)^i (chi_i^H - chi(O)) plus the Hodge tail."""
    tail = sum(v.hodge[i::2]) - sum(v.hodge[i + 1 :: 2])
    return (v.chi_o - chi_h if i % 2 else chi_h - v.chi_o) + tail


def g_i(v: VarietyData, i: int, bundles: list[DivisorClass]) -> int:
    """The i-th sectional geometric genus with the structure sheaf."""
    return genus_from_chi_H(v, i, chi_H_i(v, i, bundles))


def g1_closed(v: VarietyData, a: DivisorClass, b: DivisorClass, c: DivisorClass) -> int:
    """Closed form for g_1 on 4-folds: 1 + (K + A + B + C) A B C / 2, by ``intersection_number``."""
    if v.dim != 4:
        raise InputError("g1_closed is a 4-fold formula")
    product = intersection_number(v, [v.canonical + a + b + c, a, b, c])
    if product % 2:
        raise ModelError(f"parity violation on {v.name}: (K+A+B+C)ABC = {product} is odd")
    return 1 + product // 2


def g2_adjoint_closed(v: VarietyData, ell: DivisorClass) -> int:
    """Closed form for g_2(X, K+L, K+L) on a smooth 4-fold model."""
    if v.dim != 4:
        raise InputError("g2_adjoint_closed is a 4-fold formula")
    k = v.canonical
    d = k + ell
    term_main = intersection_number(v, [k + 3 * d, k + 2 * d, d, d])
    term_c2 = c2_pair(v, [d, d])
    term_tail = intersection_number(v, [2 * k + 2 * d, d, d, d])
    scaled = 24 * (v.hodge[1] - 1) + 2 * (term_main + term_c2) + term_tail  # 24 g_2
    value, remainder = divmod(scaled, 24)
    if remainder:
        raise ModelError(f"g_2 closed form on {v.name} is not an integer: {Fraction(scaled, 24)}")
    return value


def additivity_residual(
    v: VarietyData,
    i: int,
    a: DivisorClass,
    b: DivisorClass,
    rest: list[DivisorClass],
) -> int:
    """Additivity residual; the contract is that it is always zero.

    g_i(A+B, rest) - g_i(A, rest) - g_i(B, rest)
                   - g_{i-1}(A, B, rest) + h^{i-1}(O).

    Zero for any chi at all (a finite-difference identity), so a wrong
    model cannot make it fail; a wrong sign or subset sum in ``chi_H_i``
    or ``genus_from_chi_H`` can.  It calls ``g_i`` four times on purpose,
    so each term runs that path on its own.
    """
    n = v.dim
    if not 1 <= i <= n - 1:
        raise InputError(f"index i must be in 1..{n - 1}, got {i}")
    if len(rest) != n - i - 1:
        raise InputError(f"need {n - i - 1} extra bundles, got {len(rest)}")
    return (
        g_i(v, i, [a + b, *rest])
        - g_i(v, i, [a, *rest])
        - g_i(v, i, [b, *rest])
        - g_i(v, i - 1, [a, b, *rest])
        + v.hodge[i - 1]
    )
