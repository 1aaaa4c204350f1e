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
interpolates (n+1)^k points.  With no bundles (i = n) it is chi(O).

Two closed forms for dimension 4 accompany the definition: a trilinear
form for g_1 and the adjoint expansion for g_2(X, K+L, K+L).  Both are
validated against the definition by the verification suites, and an
additivity residual (``additivity_residual``) witnesses the three-term
decomposition rule; the contract is that it is identically zero.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, ModelError
from .hrr import chi_divisor
from .variety import DivisorClass, VarietyData, c2_pair, intersection_number


def chi_H_i(v: VarietyData, i: int, bundles: list[DivisorClass]) -> int:
    """The i-th sectional H-arithmetic genus (all-ones chi coefficient)."""
    n = v.dim
    if not 0 <= i <= n:
        raise InputError(f"index i must be in 0..{n}, got {i}")
    if len(bundles) != n - i:
        raise InputError(f"need {n - i} bundles for i={i} on {v.name}, got {len(bundles)}")
    terms = [(v.zero(), 1)]  # (-sum of the bundles in S, (-1)^|S|) for each subset S
    for bundle in bundles:
        terms += [(d - bundle, -sign) for d, sign in terms]
    return sum(sign * chi_divisor(v, d) for d, sign in terms)


def g_i(v: VarietyData, i: int, bundles: list[DivisorClass]) -> int:
    """The i-th sectional geometric genus with the structure sheaf."""
    n = v.dim
    chi_h = chi_H_i(v, i, bundles)
    tail = sum((-1) ** (n - i - j) * v.hodge[n - j] for j in range(n - i + 1))
    return (-1) ** i * (chi_h - v.chi_o) + tail


def g1_closed(v: VarietyData, a: DivisorClass, b: DivisorClass, c: DivisorClass) -> int:
    """Closed form for g_1 on 4-folds: 1 + (K + A + B + C) A B C / 2."""
    if v.dim != 4:
        raise InputError("g1_closed is a 4-fold formula")
    product = intersection_number(v, [v.canonical + a + b + c, a, b, c])
    value = 1 + Fraction(product, 2)
    if value.denominator != 1:
        raise ModelError(
            f"parity violation on {v.name}: (K+A+B+C)ABC = {product} is odd"
        )
    return int(value)


def g2_adjoint_closed(v: VarietyData, ell: DivisorClass) -> int:
    """Closed form for g_2(X, K+L, K+L) on a smooth 4-fold model."""
    if v.dim != 4:
        raise InputError("g2_adjoint_closed is a 4-fold formula")
    k = v.canonical
    d = k + ell
    term_main = intersection_number(v, [k + 3 * d, k + 2 * d, d, d])
    term_c2 = c2_pair(v, [d, d])
    term_tail = intersection_number(v, [2 * k + 2 * d, d, d, d])
    value = (
        -1
        + v.hodge[1]
        + Fraction(term_main, 12)
        + Fraction(term_c2, 12)
        + Fraction(term_tail, 24)
    )
    if value.denominator != 1:
        raise ModelError(f"g_2 closed form on {v.name} is not an integer: {value}")
    return int(value)


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
