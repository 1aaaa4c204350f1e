"""Multivariate integer-valued polynomials in the binomial basis.

A polynomial in k variables is stored by its coordinates over the basis

    B_p(t) = C(t_1 + p_1 - 1, p_1) * ... * C(t_k + p_k - 1, p_k),

one basis function per multi-index p = (p_1, ..., p_k) of non-negative
integers with total degree p_1 + ... + p_k bounded by ``max_degree``.
Integer-valued polynomials (in particular every Euler characteristic of
a family of twists) have integer coordinates in this basis, which makes
the representation a built-in consistency check on the inputs.

Binomials are always evaluated through the polynomial extension

    C(a, b) = a (a-1) ... (a-b+1) / b!,

never the combinatorial convention C(a, b) = 0 for a < 0, so that
evaluation at negative twists (Serre-dual points) is meaningful.

The coefficient at p is (nabla_1^{p_1} ... nabla_k^{p_k} f)(0), with
nabla_i f(t) = f(t) - f(t - e_i); ``backward_differences`` reads them all
from f at -q for the q of a down-closed point list.  A map of total degree
<= n needs only the C(k + n, n) points of ``simplex`` (``hrr.chi_multi``);
``coefficients_from_oracle`` reads the grid {-n, ..., 0}^k to check an
opaque oracle's degree.

Representation:

    coeffs : dict mapping multi-index tuples to Fraction
             (zero coefficients are not stored; {} is the zero polynomial)

All arithmetic is exact.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache
from itertools import chain, combinations_with_replacement, product
from math import comb, prod

from ._value import Frozen
from .errors import InputError, OracleDegreeError

MultiIndex = tuple[int, ...]


def binomial(a: int, b: int) -> int:
    """C(a, b) for any integer a and b >= 0, via the polynomial extension."""
    if b < 0:
        raise InputError(f"binomial lower index must be non-negative, got {b}")
    if a >= 0:
        return comb(a, b)
    # C(a, b) = (-1)^b C(b - a - 1, b) for a < 0
    return (-1) ** b * comb(b - a - 1, b)


class BinBasisPoly(Frozen):
    """A polynomial in binomial-basis coordinates.

    Invariants: every stored multi-index has length ``arity`` and total
    degree at most ``max_degree``; zero coefficients are dropped.
    """

    __slots__ = __match_args__ = ("arity", "max_degree", "coeffs")

    def __init__(
        self, arity: int, max_degree: int, coeffs: dict[MultiIndex, Fraction] | None = None
    ) -> None:
        if arity < 1:
            raise InputError(f"arity must be positive, got {arity}")
        if max_degree < 0:
            raise InputError(f"max_degree must be non-negative, got {max_degree}")
        cleaned: dict[MultiIndex, Fraction] = {}
        for index, value in (coeffs or {}).items():
            if len(index) != arity:
                raise InputError(f"multi-index {index} has wrong length for arity {arity}")
            if min(index) < 0:
                raise InputError(f"multi-index {index} has a negative entry")
            if sum(index) > max_degree:
                raise InputError(f"multi-index {index} exceeds total degree bound {max_degree}")
            if not isinstance(value, Fraction):
                value = Fraction(value)
            if value != 0:
                cleaned[index] = value
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "coeffs", cleaned)

    def eval(self, point: list[int] | tuple[int, ...]) -> Fraction:
        """Exact value at an integer point (length must equal the arity)."""
        if len(point) != self.arity:
            raise InputError(f"point {tuple(point)} has wrong length for arity {self.arity}")
        total = Fraction(0)
        for index, coeff in self.coeffs.items():  # coeff * B_index(point)
            total += coeff * prod(binomial(t + p - 1, p) for t, p in zip(point, index))
        return total

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def coefficient(self, index: MultiIndex) -> Fraction:
        return self.coeffs.get(tuple(index), Fraction(0))

    def backward_difference(self, axis: int) -> "BinBasisPoly":
        """The backward difference t -> p(t) - p(t - e_axis).

        In the binomial basis the difference simply shifts the ``axis``
        entry of every multi-index down by one (Pascal's rule), dropping
        the terms that had entry zero there.
        """
        if not 0 <= axis < self.arity:
            raise InputError(f"axis {axis} out of range for arity {self.arity}")
        shifted: dict[MultiIndex, Fraction] = {}
        for index, coeff in self.coeffs.items():
            if index[axis] == 0:
                continue
            new_index = index[:axis] + (index[axis] - 1,) + index[axis + 1 :]
            shifted[new_index] = shifted.get(new_index, Fraction(0)) + coeff
        return BinBasisPoly(self.arity, max(self.max_degree - 1, 0), shifted)

    def to_json_dict(self) -> dict:
        """Report-file form: coefficients as [multi-index, numerator, denominator]."""
        entries = [
            [list(index), coeff.numerator, coeff.denominator]
            for index, coeff in sorted(self.coeffs.items())
        ]
        return {"arity": self.arity, "max_degree": self.max_degree, "coeffs": entries}


@cache
def _monomials(n_gens: int, degree: int) -> tuple[MultiIndex, ...]:
    """All exponent tuples of the given total degree."""
    return tuple(
        tuple(combo.count(i) for i in range(n_gens))
        for combo in combinations_with_replacement(range(n_gens), degree)
    )


@cache
def simplex(arity: int, n: int) -> tuple[MultiIndex, ...]:
    """The C(arity + n, n) points q >= 0 with |q| <= n, degree by degree in ``_monomials`` order."""
    return tuple(chain.from_iterable(_monomials(arity, d) for d in range(n + 1)))


@cache
def _steps(points: tuple[MultiIndex, ...]) -> tuple[tuple[int, int], ...]:
    """The difference triangle on a down-closed point list, as (target, source) index pairs.

    Along each axis i, round r = 0, 1, ... sets a[q] <- a[q - e_i] - a[q] at every q with
    q_i > r, largest q_i first, so that a[q - e_i] still holds the previous round's value.
    """
    where = {q: j for j, q in enumerate(points)}
    steps: list[tuple[int, int]] = []
    for i in range(len(points[0])):
        column = sorted(points, key=lambda q: -q[i])
        for r in range(column[0][i]):
            moving = [q for q in column if q[i] > r]
            steps += [(where[q], where[(*q[:i], q[i] - 1, *q[i + 1 :])]) for q in moving]
    return tuple(steps)


def backward_differences(points: tuple[MultiIndex, ...], values: Sequence) -> list:
    """(nabla^q f)(0) for each q of a down-closed point list, from values[j] = f(-points[j])."""
    a = list(values)  # exact, in the caller's own numbers: ints stay ints
    for target, source in _steps(points):
        a[target] = a[source] - a[target]
    return a


def coefficients_from_oracle(
    f: Callable[..., int | Fraction], arity: int, max_degree: int
) -> BinBasisPoly:
    """Expand an integer-point oracle over the binomial basis.

    The coefficients are the ``backward_differences`` of the oracle's
    values on the grid {-n, ..., 0}^k (exactly (n+1)^k calls, n being the
    degree bound).  A map known to have total degree <= n would need only
    the ``simplex``; the grid is read because the oracle is opaque and its
    degree must be checked.  Newton interpolation on the grid is unisolvent
    for coordinate degree <= n, so the oracle fails to be a polynomial of
    total degree <= n on the grid precisely when some coefficient with
    total degree > n is non-zero; such inputs are rejected.
    """
    if arity < 1:
        raise InputError(f"arity must be positive, got {arity}")
    if max_degree < 0:
        raise InputError(f"max_degree must be non-negative, got {max_degree}")
    n = max_degree
    points = tuple(product(range(n + 1), repeat=arity))
    # Oracle values stay in native int/Fraction arithmetic; both are exact.
    values = [f(*t) for t in product(range(0, -n - 1, -1), repeat=arity)]  # t = -points[j]
    values = backward_differences(points, values)

    coeffs = {index: Fraction(value) for index, value in zip(points, values) if value}
    for index in coeffs:
        if sum(index) > n:
            raise OracleDegreeError(
                f"oracle not polynomial of declared degree {n}: "
                f"non-zero coefficient at {index}"
            )
    return BinBasisPoly(arity, n, coeffs)
