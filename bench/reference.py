"""Closed-form reference values for every family the benchmark feeds secgenus.

Nothing here imports secgenus.  A family is described by a small tuple
(see ``workloads.FAMILIES``):

    ("pn", n)        projective space P^n, one generator H
    ("prod", a, b)   P^a x P^b with a + b = 4, generators a, b
    ("hyp", d)       degree-d hypersurface in P^5, one generator H
    ("ab", l4)       abelian 4-fold with L^4 = l4 (a multiple of 24)

Euler characteristics use the polynomial extension of binomials, so
they hold at every integer twist:

    P^n:        chi(mH)      = C(m+n, n)
    P^a x P^b:  chi(c, e)    = C(c+a, a) C(e+b, b)
    X_d:        chi(mH)      = C(m+5, 5) - C(m-d+5, 5)
    A:          chi(mL)      = m^4 L^4 / 24

Section counts are the classical ones (sections of O(m) on projective
space, restriction sequence for hypersurfaces, Riemann-Roch plus
vanishing for ample classes on abelian varieties).  Sectional genera use
the definition over the binomial basis: the all-ones coefficient of an
equal-bundle expansion is the single-variable coefficient c_p of
f(s) = chi(sL), an iterated backward difference at 0.
"""

from __future__ import annotations

from math import comb


def binom(a: int, b: int) -> int:
    """C(a, b) for any integer a and b >= 0 (polynomial extension)."""
    if a >= 0:
        return comb(a, b)
    return (-1) ** b * comb(b - a - 1, b)


def dim(fam: tuple) -> int:
    return fam[1] if fam[0] == "pn" else 4


def n_gens(fam: tuple) -> int:
    return 2 if fam[0] == "prod" else 1


def canonical(fam: tuple) -> tuple[int, ...]:
    kind = fam[0]
    if kind == "pn":
        return (-(fam[1] + 1),)
    if kind == "prod":
        return (-(fam[1] + 1), -(fam[2] + 1))
    if kind == "hyp":
        return (fam[1] - 6,)
    return (0,)


def hodge(fam: tuple) -> tuple[int, ...]:
    kind = fam[0]
    if kind == "pn":
        return (1,) + (0,) * fam[1]
    if kind == "prod":
        return (1, 0, 0, 0, 0)
    if kind == "hyp":
        return (1, 0, 0, 0, comb(fam[1] - 1, 5))
    return (1, 4, 6, 4, 1)


def chi(fam: tuple, d: tuple[int, ...]) -> int:
    """chi(O(D)) for the divisor class with coefficients d."""
    kind = fam[0]
    if kind == "pn":
        return binom(d[0] + fam[1], fam[1])
    if kind == "prod":
        return binom(d[0] + fam[1], fam[1]) * binom(d[1] + fam[2], fam[2])
    if kind == "hyp":
        return binom(d[0] + 5, 5) - binom(d[0] - fam[1] + 5, 5)
    return d[0] ** 4 * fam[1] // 24  # L^4 is a multiple of 24


def h0(fam: tuple, d: tuple[int, ...]) -> int:
    """h^0(O(D)), exact for every twist of these families."""
    if any(c < 0 for c in d):
        return 0
    kind = fam[0]
    if kind == "hyp":
        m, deg = d[0], fam[1]
        return comb(m + 5, 5) - (comb(m - deg + 5, 5) if m >= deg else 0)
    if kind == "ab":
        return 1 if d[0] == 0 else chi(fam, d)
    return chi(fam, d)


def intersection(fam: tuple, classes: list[tuple[int, ...]]) -> int:
    """Top intersection number of dim(X) divisor classes."""
    kind = fam[0]
    if kind == "prod":
        # coefficient of x^a y^b in the product of the linear forms c x + e y
        poly = {0: 1}  # power of x -> coefficient
        for c, e in classes:
            nxt: dict[int, int] = {}
            for p, coeff in poly.items():
                nxt[p + 1] = nxt.get(p + 1, 0) + coeff * c
                nxt[p] = nxt.get(p, 0) + coeff * e
            poly = nxt
        return poly.get(fam[1], 0)
    top = {"pn": 1, "hyp": fam[1], "ab": fam[1]}[kind]
    value = top
    for (m,) in classes:
        value *= m
    return value


def chi_h_equal(fam: tuple, i: int, ell: tuple[int, ...]) -> int:
    """i-th sectional H-arithmetic genus with n - i copies of L."""
    n = dim(fam)
    if i == n:
        return chi(fam, (0,) * n_gens(fam))
    p = n - i
    return sum(
        (-1) ** j * comb(p, j) * chi(fam, tuple(-j * c for c in ell)) for j in range(p + 1)
    )


def g_equal(fam: tuple, i: int, ell: tuple[int, ...]) -> int:
    """i-th sectional geometric genus with n - i copies of L."""
    n = dim(fam)
    h = hodge(fam)
    chi_o = sum((-1) ** k * v for k, v in enumerate(h))
    tail = sum((-1) ** (n - i - j) * h[n - j] for j in range(n - i + 1))
    return (-1) ** i * (chi_h_equal(fam, i, ell) - chi_o) + tail


def difference_lhs(fam: tuple, bigs: list[tuple[int, ...]], nef: tuple[int, ...]) -> int:
    """h^0(K + L_1 + ... + L_m + L) - h^0(K + L_1 + ... + L_m)."""
    stacked = canonical(fam)
    for b in bigs:
        stacked = tuple(x + y for x, y in zip(stacked, b))
    upper = tuple(x + y for x, y in zip(stacked, nef))
    return h0(fam, upper) - h0(fam, stacked)


def label(fam: tuple) -> str:
    """Adjunction label for the polarization (1, ..., 1) with the declared fine types.

    P^n is type 1, P1xP3 type 3, P2xP2 type 4, the quadric type 2, the
    cubic (Del Pezzo) type 4, the quartic (Mukai) 7.5; hypersurfaces of
    degree >= 5 and abelian 4-folds have K + L nef, hence the TH2-1 branch.
    """
    kind = fam[0]
    if kind == "pn":
        return "1"
    if kind == "prod":
        return "3" if fam[1] == 1 else "4"
    if kind == "hyp" and fam[1] <= 4:
        return {2: "2", 3: "4", 4: "7.5"}[fam[1]]
    return "TH2-1"
