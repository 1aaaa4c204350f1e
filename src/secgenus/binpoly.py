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

Representation:

    coeffs : dict mapping multi-index tuples to Fraction
             (zero coefficients are not stored; {} is the zero polynomial)

All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import comb
from operator import sub
from typing import Callable

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


def basis_value(point: tuple[int, ...], index: MultiIndex) -> int:
    """Value of the basis function B_index at an integer point."""
    value = 1
    for t, p in zip(point, index):
        value *= binomial(t + p - 1, p)
        if value == 0:
            return 0
    return value


@dataclass(frozen=True)
class BinBasisPoly:
    """A polynomial in binomial-basis coordinates.

    Invariants: every stored multi-index has length ``arity`` and total
    degree at most ``max_degree``; zero coefficients are dropped.
    """

    arity: int
    max_degree: int
    coeffs: dict[MultiIndex, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise InputError(f"arity must be positive, got {self.arity}")
        if self.max_degree < 0:
            raise InputError(f"max_degree must be non-negative, got {self.max_degree}")
        cleaned: dict[MultiIndex, Fraction] = {}
        for index, value in self.coeffs.items():
            if len(index) != self.arity:
                raise InputError(f"multi-index {index} has wrong length for arity {self.arity}")
            if min(index) < 0:
                raise InputError(f"multi-index {index} has a negative entry")
            if sum(index) > self.max_degree:
                raise InputError(
                    f"multi-index {index} exceeds total degree bound {self.max_degree}"
                )
            if not isinstance(value, Fraction):
                value = Fraction(value)
            if value != 0:
                cleaned[index] = value
        object.__setattr__(self, "coeffs", cleaned)

    def eval(self, point: list[int] | tuple[int, ...]) -> Fraction:
        """Exact value at an integer point (length must equal the arity)."""
        if len(point) != self.arity:
            raise InputError(f"point {tuple(point)} has wrong length for arity {self.arity}")
        pt = tuple(point)
        total = Fraction(0)
        for index, coeff in self.coeffs.items():
            b = basis_value(pt, index)
            if b:
                total += coeff * b
        return total

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def scaled(self, factor: Fraction | int) -> "BinBasisPoly":
        factor = Fraction(factor)
        return BinBasisPoly(
            self.arity, self.max_degree, {i: c * factor for i, c in self.coeffs.items()}
        )

    def plus(self, other: "BinBasisPoly") -> "BinBasisPoly":
        if other.arity != self.arity:
            raise InputError("cannot add polynomials of different arity")
        merged = dict(self.coeffs)
        for index, coeff in other.coeffs.items():
            merged[index] = merged.get(index, Fraction(0)) + coeff
        return BinBasisPoly(self.arity, max(self.max_degree, other.max_degree), merged)

    def to_json_dict(self) -> dict:
        """Report-file form: coefficients as [multi-index, numerator, denominator]."""
        entries = [
            [list(index), coeff.numerator, coeff.denominator]
            for index, coeff in sorted(self.coeffs.items())
        ]
        return {"arity": self.arity, "max_degree": self.max_degree, "coeffs": entries}


def coefficients_from_oracle(
    f: Callable[..., int | Fraction], arity: int, max_degree: int
) -> BinBasisPoly:
    """Expand an integer-point oracle over the binomial basis.

    The coefficient at (p_1, ..., p_k) is the iterated backward difference
    (nabla_1^{p_1} ... nabla_k^{p_k} f)(0, ..., 0), with
    nabla_i f(t) = f(t) - f(t - e_i), computed from the oracle's values on
    the grid {-n, ..., 0}^k (exactly (n+1)^k calls, n being the degree
    bound).  Newton interpolation on that grid is unisolvent for
    coordinate degree <= n, so the oracle fails to be a polynomial of
    total degree <= n on the grid precisely when some coefficient with
    total degree > n is non-zero; such inputs are rejected.
    """
    if arity < 1:
        raise InputError(f"arity must be positive, got {arity}")
    if max_degree < 0:
        raise InputError(f"max_degree must be non-negative, got {max_degree}")
    n = max_degree
    # Oracle values stay in native int/Fraction arithmetic; both are exact.
    values = [f(*point) for point in product(range(0, -n - 1, -1), repeat=arity)]
    # Along each axis in turn, the last (stride 1) first: its entries are cut
    # into rows a[0], ..., a[n], and round r turns each row a[p], p > r, into
    # a[p - 1] - a[p], so row p ends holding the p-th backward difference.
    # Joined, the rows put that axis first; after k passes the order is back.
    for _ in range(arity):
        rows = [values[p :: n + 1] for p in range(n + 1)]
        for r in range(n):
            for p in range(n, r, -1):
                rows[p] = list(map(sub, rows[p - 1], rows[p]))
        values = list(chain.from_iterable(rows))

    coeffs: dict[MultiIndex, Fraction] = {}
    for index, value in zip(product(range(n + 1), repeat=arity), values):
        if value == 0:
            continue
        if sum(index) > n:
            raise OracleDegreeError(
                f"oracle not polynomial of declared degree {n}: "
                f"non-zero coefficient at {index}"
            )
        coeffs[index] = Fraction(value)
    return BinBasisPoly(arity, n, coeffs)
