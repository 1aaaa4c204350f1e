"""Numerical models of polarized varieties of dimension at most 4.

A variety is described purely by numbers: generator classes for the
relevant part of the Neron-Severi group, the full degree-n intersection
form on those generators, the canonical class, the pairings of the
second Chern class against degree-(n-2) monomials, the Hodge numbers
h^i(O), and declared Kodaira dimensions.  Every model is a smooth model
whose nef cone is the closed orthant spanned by its generators (a single
ray when there is one generator).  Nothing is ever computed that the
model cannot certify: Kodaira dimensions are declarations, and section
counts come either from a Riemann-Roch computation under a certified
vanishing hypothesis (see ``hrr``) or from an exact per-family oracle.

``variety_from_json`` is the one input boundary: it accepts JSON integers
only (never bools, floats or numeric strings), each monomial key once and
of the right degree, Kodaira dimensions in range, an ample polarization,
and an oracle tag only when it fits the model's dimension and generator
count.  Past it, arithmetic trusts its inputs and coerces nothing.

Intersection monomials are keyed by exponent tuples over the generator
list, so symmetry of the form is structural.  Tables are complete by
construction: ``VarietyData`` refuses a table that lacks a monomial of its
degree or holds any other key, so no lookup past the constructor can miss.
Each model compiles two polynomials in the coordinates of D once, on first
use, with one compiler (``_compile``): chi (``chi_polynomial``, the Todd
closed form of ``_TODD``) and D^n (``top_form``); ``genus.g1_closed`` reads
``intersection_number`` for every triple.  ``validate`` reads only chi: its lattice
rule already makes 2g(L) - 2 even on a 4-fold (the identity is in its docstring).

Kodaira dimensions take values in {-inf, 0, ..., n}; ``-inf`` is
``float("-inf")`` and "undeclared" is ``None``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from math import comb, factorial, prod
from operator import add, neg, sub
from pathlib import Path

from ._value import Frozen
from .binpoly import _monomials, simplex
from .errors import AbstainError, InputError, ModelError
from .report import VerificationReport

# Kodaira dimensions take integer values 0..n, NEG_INF, or None (undeclared).
NEG_INF = float("-inf")


class DivisorClass(Frozen):
    """Integer coefficient vector over a variety's generator classes."""

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        _set_coeffs(self, coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(other.coeffs) != len(self.coeffs):
            raise InputError("divisor classes live on different generator lists")
        return DivisorClass(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if len(other.coeffs) != len(self.coeffs):
            raise InputError("divisor classes live on different generator lists")
        return DivisorClass(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(map(neg, self.coeffs)))

    def __mul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(tuple([scalar * a for a in self.coeffs]))

    __rmul__ = __mul__


_set_coeffs = DivisorClass.coeffs.__set__  # the slot's own setter, past the frozen __setattr__


class AdjointDeclaration(Frozen):
    """Declared data for one polarization L: kappa(K + a L) by twist a (None: undeclared)."""

    __slots__ = __match_args__ = ("kappa", "fine_type")

    def __init__(self, kappa: dict[int, int | float | None], fine_type: str | None = None) -> None:
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "fine_type", fine_type)


class VarietyData(Frozen):
    """Immutable numerical model of a polarized variety.

    A plain class like the other value types (see ``_value``), but compared
    and hashed by identity, and with a ``__dict__`` that holds its fields and
    its ``cached_property`` forms.  The constructor refuses an inconsistent
    model; ``replace`` builds a changed copy through it, so the copy is
    checked the same way.
    """

    __match_args__ = (
        "name", "dim", "generators", "intersection_form", "canonical", "c2_pairings", "hodge",
        "kappa_x", "kappa_adjoint", "h0_oracle", "polarization",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        name: str,
        dim: int,
        generators: tuple[str, ...],
        intersection_form: dict[tuple[int, ...], int],
        canonical: DivisorClass,
        c2_pairings: dict[tuple[int, ...], int],
        hodge: tuple[int, ...],
        kappa_x: int | float | None = None,
        kappa_adjoint: dict[str, AdjointDeclaration] | None = None,
        h0_oracle: str | None = None,
        polarization: DivisorClass | None = None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "intersection_form", intersection_form)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "c2_pairings", c2_pairings)
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "kappa_x", kappa_x)
        object.__setattr__(self, "kappa_adjoint", {} if kappa_adjoint is None else kappa_adjoint)
        object.__setattr__(self, "h0_oracle", h0_oracle)
        object.__setattr__(self, "polarization", polarization)
        if not 1 <= dim <= 4:
            raise InputError(f"dimension must be 1..4, got {dim}")
        if len(hodge) != dim + 1:
            raise InputError("hodge vector must have length dim + 1")
        if hodge[0] != 1:
            raise ModelError("h^0(O) must be 1 (connectedness)")
        if any(h < 0 for h in hodge):
            raise InputError("Hodge numbers must be non-negative")
        g = len(generators)
        if len(canonical.coeffs) != g:
            raise InputError("canonical class has wrong length")
        for what, table, degree in (
            ("intersection", intersection_form, dim),
            ("c2", c2_pairings, dim - 2),
        ):
            monomials = _monomials(g, degree) if degree >= 0 else ()
            missing = next((m for m in monomials if m not in table), None)
            if missing is not None:
                raise InputError(f"{name} {what} table is missing monomial {missing}")
            if len(table) != len(monomials):
                key = next(k for k in table if k not in monomials)
                raise InputError(
                    f"{name} {what} table key {key} is not a monomial of degree {degree}"
                )
        if polarization is not None:
            if len(polarization.coeffs) != g:
                raise InputError("polarization has wrong length")
            if not self.is_ample(polarization):
                raise InputError(f"polarization {polarization.coeffs} is not ample")

    def replace(self, **changes) -> VarietyData:
        """This model with the named fields changed, built and checked by the constructor."""
        fields = {name: getattr(self, name) for name in self.__match_args__}
        return VarietyData(**{**fields, **changes})

    # -- basic queries ---------------------------------------------------

    @cached_property
    def chi_o(self) -> int:
        """chi(O) = alternating sum of the Hodge numbers, summed on first use."""
        return sum((-1) ** i * h for i, h in enumerate(self.hodge))

    @cached_property
    def chi_polynomial(self) -> CompiledChi:
        """denom * chi as a ``CompiledChi`` (the Todd closed form), compiled on first use."""
        denom, todd = _TODD[self.dim]
        return CompiledChi(denom, _compile(self, todd, denom * self.chi_o))

    @cached_property
    def top_form(self) -> tuple:
        """D -> D^n as a nested Horner form (see ``_horner``), compiled on first use."""
        return _compile(self, ((1, False, 0),))

    def zero(self) -> DivisorClass:
        return DivisorClass((0,) * len(self.generators))

    def generator(self, name: str) -> DivisorClass:
        if name not in self.generators:
            raise InputError(f"unknown generator {name!r} on {self.name}")
        i = self.generators.index(name)
        coeffs = [0] * len(self.generators)
        coeffs[i] = 1
        return DivisorClass(tuple(coeffs))

    def divisor(self, text: str) -> DivisorClass:
        return parse_divisor(text, self.generators)

    def divisor_string(self, d: DivisorClass) -> str:
        return format_divisor(d, self.generators)

    def declaration_for(self, polarization: DivisorClass) -> AdjointDeclaration | None:
        return self.kappa_adjoint.get(self.divisor_string(polarization))

    # -- positivity ------------------------------------------------------

    def is_nef(self, d: DivisorClass) -> bool:
        return not d.coeffs or min(d.coeffs) >= 0

    def is_ample(self, d: DivisorClass) -> bool:
        return not d.coeffs or min(d.coeffs) > 0

    def is_nef_and_big(self, d: DivisorClass) -> bool:
        """Nef with positive top self-intersection."""
        if len(d.coeffs) != len(self.generators):
            _check_length(self, d)  # raises; tested inline on this hot path
        return self.is_nef(d) and _horner(self.top_form, d.coeffs) > 0


# -- divisor string syntax -----------------------------------------------

_NAME = r"[A-Za-z][A-Za-z0-9_]*"  # a generator name
_TERM = re.compile(rf"([+-]?)(\d*)({_NAME})")
_IDENTIFIER = re.compile(_NAME)
_POSITIVE = re.compile(r"[1-9][0-9]*")  # a positive integer, no leading zeros
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")  # an integer as ``str`` spells it


def parse_divisor(text: str, generators: tuple[str, ...]) -> DivisorClass:
    """Parse comma-free signed terms like ``2a+1b``, ``-1H`` or ``H``."""
    s = text.replace(" ", "")
    if not s:
        raise InputError("empty divisor expression")
    coeffs = [0] * len(generators)
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m:
            raise InputError(f"cannot parse divisor expression {text!r} at {s[pos:]!r}")
        sign, digits, name = m.groups()
        if name not in generators:
            raise InputError(f"unknown generator {name!r} in {text!r}")
        value = int(digits) if digits else 1
        if sign == "-":
            value = -value
        coeffs[generators.index(name)] += value
        pos = m.end()
    return DivisorClass(tuple(coeffs))


def format_divisor(d: DivisorClass, generators: tuple[str, ...]) -> str:
    """Canonical form with every generator and explicit coefficients."""
    parts = []
    for c, name in zip(d.coeffs, generators):
        term = f"{c}{name}"
        if parts and c >= 0:
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


# -- intersection products -------------------------------------------------


@cache
def _multinomial(e: tuple[int, ...]) -> int:
    """|e|! / prod e_i!, the number of orderings of the monomial x^e."""
    return factorial(sum(e)) // prod(map(factorial, e))


def _nest(terms: dict, depth: int) -> tuple:
    """The sparse form {exponents: coefficient} as a nested Horner form.

    Entry a is the coefficient of x_1^a, nested the same way in x_2, ...;
    trailing zeros are left out, so () is the zero form.
    """
    if depth == 1:
        top = max([a for (a,), c in terms.items() if c], default=-1) + 1
        return tuple([terms.get((a,), 0) for a in range(top)])
    groups: dict = {}
    for exps, c in terms.items():
        if c:
            groups.setdefault(exps[0], {})[exps[1:]] = c
    top = max(groups, default=-1) + 1
    return tuple(_nest(groups.get(a, {}), depth - 1) for a in range(top))


def _horner(form: tuple, x: tuple, i: int = 0) -> int:
    """Value of a nested Horner form in x[i], x[i + 1], ... at the integer point x."""
    head = x[i]
    value = 0
    if i + 1 == len(x):
        for c in reversed(form):
            value = value * head + c
    else:
        for entry in reversed(form):
            value = value * head + _horner(entry, x, i + 1)
    return value


def _check_length(v: VarietyData, *classes: DivisorClass) -> None:
    g = len(v.generators)
    for d in classes:
        if len(d.coeffs) != g:
            raise InputError(
                f"divisor class {d.coeffs} has {len(d.coeffs)} coordinates, "
                f"{v.name} has {g} generators"
            )


# dim -> (denominator, terms of denom * (chi(D) - chi(O))) for ``_compile``
_TODD = {
    1: (1, ((1, False, 0),)),
    2: (2, ((1, False, 0), (1, False, 1))),
    3: (12, ((2, False, 0), (3, False, 1), (1, False, 2), (1, True, 0))),
    4: (24, ((1, False, 0), (2, False, 1), (1, False, 2), (1, True, 0), (1, True, 1))),
}


class CompiledChi(Frozen):
    """denom * chi(x_1 G_1 + ... + x_g G_g) as a nested Horner form (see ``_nest``)."""

    __slots__ = __match_args__ = ("denom", "horner")

    def __init__(self, denom: int, horner: tuple) -> None:
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "horner", horner)


def _compile(v: VarietyData, terms: tuple, constant: int = 0) -> tuple:
    """constant + the sum of the terms, as a nested Horner form in the coordinates x of D.

    A term (weight, pairs with c_2, j) stands for weight * (c_2 or 1) * c_1^j * D^(rest),
    as in ``_TODD``.  The coefficient of x^e in c_1^j D^(rest) (or c_2 c_1^j D^(rest)) is
    ``_multinomial(e)`` * F_j(e), where F_0(e) = table[e] and the form of each further factor
    of c_1 contracts the previous one, F_j(e) = sum_i c_1[i] * F_(j-1)(e + u_i).  So each
    table is read once, at j = 0 (F_0 is the table itself), within each table the terms
    must come with j = 0, 1, 2 in this order, and no divisor classes are built.
    """
    g = len(v.generators)
    c1 = [(i, -k) for i, k in enumerate(v.canonical.coeffs) if k]
    coefficients = {(0,) * g: constant}
    for weight, with_c2, j in terms:
        degree = v.dim - 2 * with_c2 - j
        if j == 0:
            form = v.c2_pairings if with_c2 else v.intersection_form
        else:
            form = {
                e: sum([c * form[(*e[:i], e[i] + 1, *e[i + 1 :])] for i, c in c1])
                for e in _monomials(g, degree)
            }
        for e, value in form.items():
            coefficients[e] = coefficients.get(e, 0) + weight * _multinomial(e) * value
    return _nest(coefficients, g)


def _non_integer_point(v: VarietyData) -> tuple[int, ...] | None:
    """The first point e >= 0 with |e| <= n at which chi is not an integer, or None.

    chi has degree <= n, so by Polya's binomial basis it is integer-valued on Z^g
    exactly when it is an integer at these C(g + n, n) points.
    """
    chi = v.chi_polynomial
    for e in simplex(len(v.generators), v.dim):
        if _horner(chi.horner, e) % chi.denom:
            return e
    return None


def integrality_row(v: VarietyData) -> tuple[bool, str, str]:
    """(passed, expected, actual) of the one integrality row, ``_non_integer_point``'s verdict.

    ``validate`` and the ``integrality`` suite both report it.
    """
    point = _non_integer_point(v)
    if point is None:
        return True, "integer coefficients", "ok"
    chi = v.chi_polynomial
    value = Fraction(_horner(chi.horner, point), chi.denom)
    return False, "integer coefficients", f"chi({v.divisor_string(DivisorClass(point))}) = {value}"


def _expand(v: VarietyData, table: dict[tuple[int, ...], int], classes: list[DivisorClass]) -> int:
    """Multilinear expansion of a pairing table against divisor classes."""
    n_gens = len(v.generators)
    supports = []
    for cls in classes:
        if len(cls.coeffs) != n_gens:
            _check_length(v, cls)  # raises; tested inline on this hot path
        supports.append([(g, c) for g, c in enumerate(cls.coeffs) if c])
    total = 0
    for picks in product(*supports):
        coeff = 1
        exps = [0] * n_gens
        for g, c in picks:
            coeff *= c
            exps[g] += 1
        total += coeff * table[tuple(exps)]
    return total


def intersection_number(v: VarietyData, classes: list[DivisorClass]) -> int:
    """Product of exactly dim(V) divisor classes against the intersection form."""
    if len(classes) != v.dim:
        raise InputError(f"need exactly {v.dim} classes, got {len(classes)}")
    return _expand(v, v.intersection_form, classes)


def c2_pair(v: VarietyData, classes: list[DivisorClass]) -> int:
    """Pair c_2(X) with exactly dim(V) - 2 divisor classes."""
    if v.dim < 2:
        raise InputError("c_2 pairings require dimension >= 2")
    if len(classes) != v.dim - 2:
        raise InputError(f"need exactly {v.dim - 2} classes, got {len(classes)}")
    return _expand(v, v.c2_pairings, classes)


# -- catalog ----------------------------------------------------------------

# Fine types are declared only below the big-adjoint range; for hypersurfaces of
# degree d >= 5 the terminal second-reduction label is the classification.
# d = 3: K = -(n-1)H, a Del Pezzo manifold; d = 4: K = -(n-2)H, Mukai.
_FINE_TYPES = {
    "p3": "1",
    "p4": "1",
    "p1xp3": "3",
    "p2xp2": "4",
    "hypersurface:2": "2",
    "hypersurface:3": "4",
    "hypersurface:4": "7.5",
}


def catalog_build(tag: str, l4: int | None = None) -> VarietyData:
    """The catalog entry the oracle tag names, polarized by the sum of its generators.

    ``p<n>(xp<n>)*`` of dimension <= 4 is built from its factor dimensions (``_oracle``):
    generator i is the pull-back of factor i's hyperplane class (``H`` for one factor,
    else ``a, b, c, d``), H^e = [e = dims], K = -sum (n_i + 1) H_i and, by
    c(X) = prod (1 + H_i)^(n_i + 1), H^e pairs with c_2 to prod C(n_i + 1, e_i + 1).
    ``hypersurface:<d>`` and ``abelian`` (L^4 = ``l4``, a positive multiple of 24) come
    from closed forms.  kappa(sum c_i H_i) is -inf if some c_i < 0, else sum_{c_i > 0} n_i.
    """
    dims = _oracle(tag)[0]
    n, g = sum(dims), len(dims)
    if tag == "abelian":
        if l4 is None or l4 <= 0 or l4 % 24 != 0:
            raise InputError(f"abelian needs L^4 a positive multiple of 24, got {l4}")
        name = "A4"
        generators, canonical, top = ("L",), (0,), {(4,): l4}
        c2, hodge = {(2,): 0}, (1, 4, 6, 4, 1)
    elif l4 is not None:
        raise InputError(f"only 'abelian' takes L^4, got {l4} for {tag!r}")
    elif tag.startswith("hypersurface:"):
        d = int(tag.partition(":")[2])
        name = "Q4" if d == 2 else f"X{d}"
        generators, canonical, top = ("H",), (d - 6,), {(4,): d}
        # c(X) = (1+H)^6 / (1+dH) restricted: c_2 = (d^2 - 6d + 15) H^2
        c2, hodge = {(2,): (d * d - 6 * d + 15) * d}, (1, 0, 0, 0, comb(d - 1, 5))
    elif n > 4:
        raise InputError(f"catalog entries have dimension at most 4, {tag!r} has {n}")
    else:
        name = "x".join(f"P{k}" for k in dims)
        generators = ("H",) if g == 1 else tuple("abcd"[:g])
        top = {e: int(e == dims) for e in _monomials(g, n)}
        canonical = tuple(-(k + 1) for k in dims)
        pairs = _monomials(g, n - 2) if n >= 2 else ()
        c2 = {e: prod(comb(k + 1, i + 1) for i, k in zip(e, dims)) for e in pairs}
        hodge = (1,) + (0,) * n

    def kappa(coeffs) -> "int | float":
        return NEG_INF if min(coeffs) < 0 else sum(k for c, k in zip(coeffs, dims) if c)

    pol = DivisorClass((1,) * g)
    kappas = {t: kappa([c + t for c in canonical]) for t in (1, 2, 3)}
    decl = AdjointDeclaration(kappas, _FINE_TYPES.get(tag))
    return VarietyData(
        name=name,
        dim=n,
        generators=generators,
        intersection_form=top,
        canonical=DivisorClass(canonical),
        c2_pairings=c2,
        hodge=hodge,
        kappa_x=kappa(canonical),
        kappa_adjoint={format_divisor(pol, generators): decl},
        h0_oracle=tag,
        polarization=pol,
    )


def standard_catalog() -> dict[str, VarietyData]:
    """The named entries used throughout the verification suites, in this order."""
    tags = ["p1", "p2", "p3", "p4", "p1xp3", "p2xp2", *(f"hypersurface:{d}" for d in range(2, 8))]
    entries = [catalog_build(tag) for tag in tags] + [catalog_build("abelian", 24)]
    return {v.name: v for v in entries}


# -- exact section counts ----------------------------------------------------


def _sections(dims: tuple[int, ...], coeffs: tuple[int, ...]) -> int:
    """h^0(O(c_1, ..., c_k)) on P^n_1 x ... x P^n_k, by Kuenneth."""
    count = 1
    for c, n in zip(coeffs, dims):
        if c < 0:
            return 0
        count *= comb(c + n, n)
    return count


def _abelian(v: VarietyData, coeffs: tuple[int, ...]) -> int:
    """h^0(mL) on an abelian fourfold: 1 at m = 0, (mL)^4 / 24 for m > 0."""
    m = coeffs[0]
    return 1 if m == 0 else max(m, 0) ** 4 * v.intersection_form[(4,)] // 24


_PRODUCT_TAG = re.compile(r"p[1-9][0-9]*(xp[1-9][0-9]*)*")
_HYPERSURFACE_TAG = re.compile(r"hypersurface:([1-9][0-9]*)")


@cache
def _oracle(tag: str):
    """The factor dimensions of the family an oracle tag names and its rule (model, coeffs) -> h^0.

    Tags: ``p<n>(xp<n>)*`` (n >= 1, no leading zeros), ``hypersurface:<d>``
    (d >= 2, spelled canonically) and ``abelian``; a hypersurface or A4 is one
    factor of dimension 4.  A model with the tag has dimension sum(dims) and
    len(dims) generators.
    """
    if _PRODUCT_TAG.fullmatch(tag):
        dims = tuple(int(factor[1:]) for factor in tag.split("x"))
        return dims, lambda v, coeffs: _sections(dims, coeffs)
    hyper = _HYPERSURFACE_TAG.fullmatch(tag)
    if hyper and int(hyper[1]) >= 2:
        d = int(hyper[1])
        # restriction from P^5: 0 -> O(m-d) -> O(m) -> O_X(m) -> 0
        return (4,), lambda v, c: _sections((5,), c) - _sections((5,), (c[0] - d,))
    if tag == "abelian":
        return (4,), _abelian
    raise InputError(f"unknown oracle tag {tag!r}")


def h0_exact(v: VarietyData, d: DivisorClass) -> int:
    """Exact h^0 from the per-family oracle (independent of Riemann-Roch)."""
    if v.h0_oracle is None:
        raise AbstainError(f"{v.name} has no exact section-count oracle")
    if len(d.coeffs) != len(v.generators):
        _check_length(v, d)  # raises; tested inline on this hot path
    return _oracle(v.h0_oracle)[1](v, d.coeffs)


# -- model validation --------------------------------------------------------


def validate(v: VarietyData) -> VerificationReport:
    """Consistency checks; a failing report invalidates downstream results.

    h^0(O) = 1 and complete tables have no row: the constructor refuses any
    other model, so none that reaches this function could fail them.  "chi
    expansion integral" is ``integrality_row``, and the section-count rows
    show chi exactly.
    On a 4-fold, (K + 3L) L^3 = -2 sum_{j=0}^{3} (-1)^j C(3, j) chi(-jL), so
    an integer-valued chi makes it even for every L: parity needs no row.
    """
    report = VerificationReport(title=f"validate:{v.name}")
    chi = v.chi_polynomial
    if v.h0_oracle is not None:
        g = len(v.generators)
        label = v.divisor_string(DivisorClass((1,) * g))
        for m in range(max(1, max(v.canonical.coeffs) + 1), 4):  # m(1, ..., 1) - K ample
            d = DivisorClass((m,) * g)
            count = h0_exact(v, d)
            scaled = _horner(chi.horner, d.coeffs)
            passed = scaled == chi.denom * count
            report.add(
                f"chi({m}*({label})) matches section count",
                passed,
                expected=count,
                actual=count if passed else Fraction(scaled, chi.denom),
            )

    report.add("chi expansion integral", *integrality_row(v))
    return report


# -- JSON interchange --------------------------------------------------------


def _monomial_to_string(exps: tuple[int, ...], generators: tuple[str, ...]) -> str:
    parts = []
    for e, name in zip(exps, generators):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def _monomial_from_string(text: str, generators: tuple[str, ...]) -> tuple[int, ...]:
    exps = [0] * len(generators)
    text = text.strip()
    if text in ("", "1"):
        return tuple(exps)
    for token in text.split():
        name, caret, power = token.partition("^")
        if caret and not _POSITIVE.fullmatch(power):
            raise InputError(f"exponent {power!r} in monomial {text!r} is not a positive integer")
        if name not in generators:
            raise InputError(f"unknown generator {name!r} in monomial {text!r}")
        exps[generators.index(name)] += int(power) if caret else 1
    return tuple(exps)


def _kappa_to_json(value):
    if value is None:
        return None
    if value == NEG_INF:
        return "-inf"
    return value


def _int(value, what: str) -> int:
    """A JSON integer; bools, floats and strings are rejected, never coerced."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _ints(values, what: str) -> tuple[int, ...]:
    """A JSON list of integers; a string or object is rejected, never iterated."""
    if type(values) is not list:
        raise InputError(f"{what} must be a JSON list, got {values!r}")
    return tuple(_int(x, f"{what} entry") for x in values)


def _object(value, what: str) -> dict:
    """A JSON object, or an empty one for null; a list, string, number or bool is rejected."""
    if value is None:
        return {}
    if type(value) is not dict:
        raise InputError(f"{what} must be a JSON object or null, got {value!r}")
    return value


def _kappa_from_json(value, dim: int):
    if value is None:
        return None
    if value == "-inf":
        return NEG_INF
    kappa = _int(value, "kappa")
    if not 0 <= kappa <= dim:
        raise InputError(f"kappa must be -inf or in 0..{dim}, got {kappa}")
    return kappa


def _twist(key: str) -> int:
    """A twist key, spelled exactly as ``str`` spells its integer ("01", " 2", "1_0" are not)."""
    if not _INTEGER.fullmatch(key):
        raise InputError(f"kappa_adjoint twist key {key!r} is not an integer")
    return int(key)


def _table_from_json(raw: dict, generators: tuple[str, ...], degree: int, what: str) -> dict:
    """A pairing table: one value per distinct monomial of the given degree."""
    table = {}
    for key, value in raw.items():
        exps = _monomial_from_string(key, generators)
        if sum(exps) != degree:
            raise InputError(f"{what} monomial {key!r} has degree {sum(exps)}, not {degree}")
        if exps in table:
            raise InputError(f"{what} monomial {key!r} is given twice")
        table[exps] = _int(value, what)
    return table


def _generators_from_json(raw) -> tuple[str, ...]:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"generators must be a non-empty list of names, got {raw!r}")
    for name in raw:
        if not isinstance(name, str) or not _IDENTIFIER.fullmatch(name):
            raise InputError(f"generator name {name!r} is not an identifier")
    if len(set(raw)) != len(raw):
        raise InputError(f"generator names repeat: {raw}")
    return tuple(raw)


def _check_oracle(tag, dim: int, n_gens: int) -> None:
    """The oracle tag must name a family with this dimension and generator count."""
    if tag is None:
        return
    if not isinstance(tag, str):
        raise InputError(f"oracle tag must be a string, got {tag!r}")
    dims = _oracle(tag)[0]
    if (sum(dims), len(dims)) != (dim, n_gens):
        raise InputError(
            f"oracle {tag!r} needs dim {sum(dims)} with {len(dims)} generator(s), "
            f"got dim {dim} with {n_gens}"
        )


def variety_to_json(v: VarietyData) -> dict:
    decls = {}
    for key, decl in v.kappa_adjoint.items():
        decls[key] = {
            "kappa": {str(a): _kappa_to_json(k) for a, k in sorted(decl.kappa.items())},
            "fine_type": decl.fine_type,
        }
    return {
        "name": v.name,
        "dim": v.dim,
        "generators": list(v.generators),
        "intersections": {
            _monomial_to_string(m, v.generators): val
            for m, val in sorted(v.intersection_form.items())
        },
        "canonical": list(v.canonical.coeffs),
        "c2_pairings": {
            _monomial_to_string(m, v.generators): val for m, val in sorted(v.c2_pairings.items())
        },
        "hodge": list(v.hodge),
        "nef_cone": "ray" if len(v.generators) == 1 else "orthant",
        "kappa_X": _kappa_to_json(v.kappa_x),
        "kappa_adjoint": decls,
        "oracle": v.h0_oracle,
        "polarization": list(v.polarization.coeffs) if v.polarization else None,
    }


def variety_from_json(data: dict) -> VarietyData:
    """The schema boundary: a model from its JSON description, or an InputError."""
    if type(data) is not dict:
        raise InputError(f"a variety description must be a JSON object, got {type(data).__name__}")
    try:
        generators = _generators_from_json(data["generators"])
        dim = _int(data["dim"], "dim")
        cone = data["nef_cone"]
        if cone not in ("ray", "orthant"):
            raise InputError(f"nef_cone must be 'ray' or 'orthant', got {cone!r}")
        if cone == "ray" and len(generators) != 1:
            raise InputError("a 'ray' nef cone needs exactly one generator")
        _check_oracle(data.get("oracle"), dim, len(generators))
        decls = {}
        for key, raw in _object(data.get("kappa_adjoint"), "kappa_adjoint").items():
            polarization = parse_divisor(key, generators)
            if min(polarization.coeffs) <= 0:  # classify refuses such an L before any lookup
                raise InputError(f"kappa_adjoint key {key!r} is not an ample class")
            # stored under the spelling declaration_for looks up
            canonical = format_divisor(polarization, generators)
            if canonical in decls:
                raise InputError(f"kappa_adjoint keys name the class {canonical} twice")
            if type(raw) is not dict:
                raise InputError(f"kappa_adjoint[{key!r}] must be a JSON object, got {raw!r}")
            kappa = _object(raw.get("kappa"), f"kappa_adjoint[{key!r}] kappa")
            fine_type = raw.get("fine_type")
            if fine_type is not None and not isinstance(fine_type, str):
                raise InputError(f"fine_type must be a JSON string or null, got {fine_type!r}")
            decls[canonical] = AdjointDeclaration(
                kappa={_twist(a): _kappa_from_json(k, dim) for a, k in kappa.items()},
                fine_type=fine_type,
            )
        name = data["name"]
        if type(name) is not str or not name:
            raise InputError(f"name must be a non-empty JSON string, got {name!r}")
        pol = data.get("polarization")
        intersections = data["intersections"]
        if type(intersections) is not dict:
            raise InputError(f"intersections must be a JSON object, got {intersections!r}")
        return VarietyData(
            name=name,
            dim=dim,
            generators=generators,
            intersection_form=_table_from_json(intersections, generators, dim, "intersection"),
            canonical=DivisorClass(_ints(data["canonical"], "canonical")),
            c2_pairings=_table_from_json(
                _object(data.get("c2_pairings"), "c2_pairings"), generators, dim - 2, "c2 pairing"
            ),
            hodge=_ints(data["hodge"], "hodge"),
            kappa_x=_kappa_from_json(data.get("kappa_X"), dim),
            kappa_adjoint=decls,
            h0_oracle=data.get("oracle"),
            polarization=None if pol is None else DivisorClass(_ints(pol, "polarization")),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed variety description: {exc}") from exc


def load_variety(path: str | Path) -> VarietyData:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read variety file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"variety file {path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"variety file {path} is JSON nested too deep to decode") from exc
    return variety_from_json(data)


def save_variety(v: VarietyData, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(variety_to_json(v), handle, indent=2, sort_keys=True)
        handle.write("\n")
