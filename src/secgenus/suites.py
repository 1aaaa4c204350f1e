"""Seeded verification suites over the catalog.

Each suite turns one family of identities or bounds into a
``VerificationReport``: exact integer (or exact rational) comparisons
only, with seeded draws so a fixed seed reproduces the report byte for
byte.  Every check goes through one runner, ``_check``, which adds
exactly one check: an ``AbstainError`` met on the way becomes an
abstention and a ``ModelError`` a failed check, under the name and
inputs of the check they replace.  A suite whose entries give no check
records one abstention that says why.  Each suite's signature holds its
only defaults; ``run_suites`` passes on only what its caller gave.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from . import adjoint, genus, hrr
from .binpoly import coefficients_from_oracle
from .errors import AbstainError, InputError, ModelError
from .report import VerificationReport
from .variety import (
    DivisorClass,
    VarietyData,
    integrality_row,
    intersection_number,
    standard_catalog,
)

# each suite, in run order, with the keyword arguments of its function beyond ``entries``
SUITE_ARGUMENTS = {
    "difference": ("draws", "seed"),
    "jumps": ("m_max",),
    "additivity": ("draws", "seed"),
    "bounds": ("m_max",),
    "integrality": (),
    "closed": ("draws", "seed"),
    "c2bound": ("draws", "seed"),
    "g0": ("draws", "seed"),
    "serre": ("draws", "seed"),
}
SUITE_NAMES = tuple(SUITE_ARGUMENTS)


@lru_cache(maxsize=1)
def get_catalog() -> dict[str, VarietyData]:
    """One shared catalog instance per process."""
    return standard_catalog()


def fourfold_entries() -> list[VarietyData]:
    """The catalog's 4-folds, in catalog order."""
    return [v for v in get_catalog().values() if v.dim == 4]


def _draw_class(rng: random.Random, n_gens: int, lo: int, hi: int) -> DivisorClass:
    return DivisorClass(tuple(rng.randint(lo, hi) for _ in range(n_gens)))


def _attempt(report: VerificationReport, name: str, compute, inputs: dict | None = None):
    """Return ``compute()``, or record its abstention or model error as check ``name``."""
    try:
        return compute()
    except AbstainError as exc:
        report.add(name, None, note=str(exc), inputs=inputs)
    except ModelError as exc:
        report.add(name, False, expected="a consistent model", actual=str(exc), inputs=inputs)
    return None


def _check(report: VerificationReport, name: str, compute, inputs: dict | None = None) -> None:
    """Add check ``name`` from ``compute() -> (passed, expected, actual[, note])``."""
    result = _attempt(report, name, compute, inputs)
    if result is not None:
        passed, expected, actual, *note = result
        report.add(name, passed, expected, actual, inputs, *note)


def _equal(actual, expected) -> tuple:
    return actual == expected, expected, actual


def _at_least(actual, bound) -> tuple:
    return actual >= bound, f">= {bound}", actual


def _h0(v: VarietyData, d: DivisorClass) -> int:
    return hrr.h0_certified(v, d)[0]


def _inputs(v: VarietyData, **values) -> dict:
    """A check's inputs: the variety's name, and each class or list of classes as text."""
    for key, value in values.items():
        if isinstance(value, DivisorClass):
            values[key] = v.divisor_string(value)
        elif isinstance(value, list):
            values[key] = ",".join(v.divisor_string(d) for d in value)
    return {"variety": v.name, **values}


def _or_abstain(report: VerificationReport, reason: str) -> VerificationReport:
    """``report``, with one abstention naming its suite and ``reason`` if it holds no check."""
    if not report.checks:
        report.add(f"{report.title}: {reason}", None, note=reason)
    return report


def _difference(v: VarietyData, bigs: list[DivisorClass], nef: DivisorClass) -> tuple:
    # the draws lie in the model's declared nef cone, so a refusal is the model's fault
    try:
        req = adjoint.DifferenceRequest.build(v, bigs, nef)
    except InputError as exc:
        raise ModelError(f"{exc} on {v.name}") from exc
    return adjoint.difference_rhs(req), adjoint.difference_lhs(req)


def _anchor() -> tuple:
    # one nef-and-big bundle of degree six on P4: both sides are 10
    p4 = get_catalog()["P4"]
    rhs, lhs = _difference(p4, [p4.divisor("6H")], p4.divisor("1H"))
    return rhs == lhs == 10, 10, f"rhs={rhs} lhs={lhs}"


def suite_difference(
    entries: list[VarietyData] | None = None, draws: int = 25, seed: int = 7
) -> VerificationReport:
    """Difference-formula exactness: genus side equals section-count side."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="difference")

    _check(report, "anchor P4 [6H] + H", _anchor, {"variety": "P4", "big": "6H", "nef": "1H"})

    rng = random.Random(seed)
    for v in entries:
        g = len(v.generators)
        for k in range(draws):
            m = rng.randint(1, 3)
            bigs = [_draw_class(rng, g, 1, 3) for _ in range(m)]
            nef = _draw_class(rng, g, 0, 2)
            _check(
                report,
                f"{v.name} draw {k} (m={m})",
                lambda: _equal(*_difference(v, bigs, nef)),
                _inputs(v, big=bigs, nef=nef),
            )
    return report


def suite_jumps(entries: list[VarietyData] | None = None, m_max: int = 10) -> VerificationReport:
    """Consecutive-multiple differences match the genus-side specialisation."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="jumps")
    for v in entries:
        if v.dim != 4 or not v.polarization or not v.is_nef(v.canonical + v.polarization):
            continue
        ell = v.polarization
        kl = v.canonical + ell
        for m in range(2, m_max + 1):
            _check(
                report,
                f"{v.name} m={m}",
                lambda: _equal(adjoint.jump_rhs(v, ell, m), _h0(v, m * kl) - _h0(v, (m - 1) * kl)),
                _inputs(v, L=ell, m=m),
            )
    return _or_abstain(report, "no 4-fold entry with a polarization L and K + L nef")


def suite_additivity(
    entries: list[VarietyData] | None = None, draws: int = 25, seed: int = 7
) -> VerificationReport:
    """Additivity residual vanishes on seeded draws across the catalog.

    The residual is zero for any chi, so this suite checks the genus
    code's inclusion-exclusion, not the model.  A chi that is not
    integer-valued fails here as in ``closed`` and ``g0``, only as "a
    consistent model" errors; a wrong chi that stays integer-valued
    fails none of the three.
    """
    entries = [v for v in (fourfold_entries() if entries is None else entries) if v.dim >= 2]
    report = VerificationReport(title="additivity")
    rng = random.Random(seed)
    for k in range(draws) if entries else ():
        v = entries[rng.randrange(len(entries))]
        g = len(v.generators)
        i = rng.randint(1, v.dim - 1)
        a = _draw_class(rng, g, -2, 2)
        b = _draw_class(rng, g, -2, 2)
        rest = [_draw_class(rng, g, -2, 2) for _ in range(v.dim - i - 1)]
        _check(
            report,
            f"draw {k}: {v.name} i={i}",
            lambda: _equal(genus.additivity_residual(v, i, a, b, rest), 0),
            _inputs(v, i=i, A=a, B=b, rest=rest),
        )
    return _or_abstain(report, "no entry of dimension at least 2")


def suite_bounds(entries: list[VarietyData] | None = None, m_max: int = 10) -> VerificationReport:
    """Recursion bound, second-multiple expression, and superadditivity."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="bounds")
    for v in entries:
        ell = v.polarization
        if v.dim != 4 or ell is None or v.kappa_x is None or v.kappa_x < 0:
            continue
        kl = v.canonical + ell
        if not v.is_nef(kl):
            continue
        bound = _attempt(
            report, f"{v.name} recursion bound", lambda: adjoint.check_multiple_bound(v, ell, m_max)
        )
        if bound is not None:
            report.extend(bound)
        _check(
            report,
            f"{v.name} second-multiple expression",
            lambda: _at_least(adjoint.second_jump_expression(v, ell), Fraction(111, 192)),
            _inputs(v, L=ell),
        )
        _check(
            report,
            f"{v.name} h0(2(K+L)) - h0(K+L) >= 1",
            lambda: _at_least(_h0(v, 2 * kl) - _h0(v, kl), 1),
        )
        for a, b in ((1, 1), (1, 2), (2, 2), (2, 3)):
            _check(
                report,
                f"{v.name} superadditivity a={a} b={b}",
                lambda: _at_least(_h0(v, (a + b) * kl), _h0(v, a * kl) + _h0(v, b * kl) - 1),
            )
    return _or_abstain(report, "no 4-fold entry with a polarization L, kappa(X) >= 0 and K + L nef")


def suite_integrality(entries: list[VarietyData] | None = None) -> VerificationReport:
    """chi integer-valued on the lattice: one row per entry, ``validate``'s integrality row.

    ``variety.integrality_row`` decides and words it.  A model whose chi is
    not integer-valued fails its row; by the identity in ``validate``'s
    docstring that also decides the parity of (K+3L)L^3 on a 4-fold.
    """
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="integrality")
    for v in entries:
        _check(report, f"{v.name} chi expansion integral", lambda: integrality_row(v), _inputs(v))
    return _or_abstain(report, "no entry")


def suite_closed(
    entries: list[VarietyData] | None = None, draws: int = 10, seed: int = 7
) -> VerificationReport:
    """Closed forms agree with the coefficient-extraction definition."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="closed")
    rng = random.Random(seed)
    for v in entries:
        if v.dim != 4:
            continue
        g = len(v.generators)
        for k in range(draws):
            a = _draw_class(rng, g, -2, 2)
            b = _draw_class(rng, g, -2, 2)
            c = _draw_class(rng, g, -2, 2)
            _check(
                report,
                f"{v.name} g1 closed form {k}",
                lambda: _equal(genus.g1_closed(v, a, b, c), genus.g_i(v, 1, [a, b, c])),
                _inputs(v, A=a, B=b, C=c),
            )
        for k in range(draws):
            ell = _draw_class(rng, g, -2, 2)
            kl = v.canonical + ell
            _check(
                report,
                f"{v.name} g2 adjoint closed form {k}",
                lambda: _equal(genus.g2_adjoint_closed(v, ell), genus.g_i(v, 2, [kl, kl])),
                _inputs(v, L=ell),
            )
    return _or_abstain(report, "no 4-fold entry")


def _c2_bound(v: VarietyData, ell: DivisorClass, a1: DivisorClass, a2: DivisorClass) -> tuple:
    result = adjoint.c2_lower_bound_check(v, ell, a1, a2)
    alt = "holds" if result.holds_alt else "fails"
    note = f"alternative bound {alt} (reported, not asserted)"
    return result.holds_main, f">= {result.rhs_main}", result.lhs, note


def suite_c2bound(
    entries: list[VarietyData] | None = None, draws: int = 20, seed: int = 7
) -> VerificationReport:
    """Second-Chern-class lower bound on certified draws."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="c2bound")
    rng = random.Random(seed)
    for v in entries:
        if v.dim != 4:
            continue
        g = len(v.generators)
        first = len(report.checks)
        for _ in range(draws):
            ell = _draw_class(rng, g, 1, 6)
            name = f"{v.name} c2 bound draw {len(report.checks) - first}"
            if not _attempt(report, name, lambda: v.is_nef_and_big(v.canonical + ell)):
                continue
            a1 = _draw_class(rng, g, 0, 3)
            a2 = _draw_class(rng, g, 0, 3)
            _check(report, name, lambda: _c2_bound(v, ell, a1, a2), _inputs(v, L=ell, A1=a1, A2=a2))
        if len(report.checks) == first:
            report.add(f"{v.name} c2 bound", None, note="no draw with K + L nef and big; abstained")
    return _or_abstain(report, "no 4-fold entry")


def suite_g0(
    entries: list[VarietyData] | None = None, draws: int = 25, seed: int = 7
) -> VerificationReport:
    """g_0 equals the intersection number of its bundles."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="g0")
    rng = random.Random(seed)
    for k in range(draws) if entries else ():
        v = entries[rng.randrange(len(entries))]
        g = len(v.generators)
        bundles = [_draw_class(rng, g, -2, 2) for _ in range(v.dim)]
        _check(
            report,
            f"draw {k}: {v.name}",
            lambda: _equal(genus.g_i(v, 0, bundles), intersection_number(v, bundles)),
            _inputs(v, bundles=bundles),
        )
    return _or_abstain(report, "no entry")


def suite_serre(
    entries: list[VarietyData] | None = None, draws: int = 20, seed: int = 7
) -> VerificationReport:
    """chi(K - D) = (-1)^n chi(D), plus equal-bundle re-expansion consistency."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="serre")
    rng = random.Random(seed)
    for v in entries:
        g = len(v.generators)
        for k in range(draws):
            d = _draw_class(rng, g, -3, 3)
            _check(
                report,
                f"{v.name} duality draw {k}",
                lambda: _equal(
                    hrr.chi_divisor(v, v.canonical - d), (-1) ** v.dim * hrr.chi_divisor(v, d)
                ),
                _inputs(v, D=d),
            )
        if v.polarization is None:
            continue
        ell = v.polarization
        single = _attempt(
            report,
            f"{v.name} equal-bundle chi^H",
            lambda: coefficients_from_oracle(lambda t: hrr.chi_divisor(v, t * ell), 1, v.dim),
        )
        if single is None:
            continue
        for i in range(v.dim):
            expected = int(single.coefficient((v.dim - i,)))
            _check(
                report,
                f"{v.name} equal-bundle chi_{i}^H",
                lambda: _equal(genus.chi_H_i(v, i, [ell] * (v.dim - i)), expected),
            )
    return _or_abstain(report, "no entry")


# how an input error names each argument a caller may give, and why no suite may take it
_ARGUMENTS = {
    "draws": ("a draw count", "it draws nothing"),
    "seed": ("a seed", "it draws nothing"),
    "m_max": ("m_max", "it checks no range of multiples"),
}


def run_suites(
    names: list[str], draws: int | None = None, seed: int | None = None, m_max: int | None = None
) -> VerificationReport:
    """Run the named suites in order, each given those of the caller's arguments it takes.

    An argument left as None keeps each suite's own default.  An argument
    that no selected suite takes, a draw count below 1 and an ``m_max``
    below 2 are input errors.
    """
    unknown = [name for name in names if name not in SUITE_NAMES]
    if unknown:
        raise InputError(f"unknown suite {unknown[0]!r}; choose from {SUITE_NAMES}")
    given = {"draws": draws, "seed": seed, "m_max": m_max}
    for key, value in given.items():
        if value is not None and not any(key in SUITE_ARGUMENTS[name] for name in names):
            label, reason = _ARGUMENTS[key]
            raise InputError(f"{label} does not apply to {'+'.join(names)}: {reason}")
    if draws is not None and draws < 1:
        raise InputError(f"a draw count must be at least 1, not {draws}")
    if m_max is not None and m_max < 2:
        raise InputError(f"m_max must be at least 2, not {m_max}")
    merged = VerificationReport(title="+".join(names))
    for name in names:
        kwargs = {k: v for k, v in given.items() if v is not None and k in SUITE_ARGUMENTS[name]}
        # looked up by name at each run, so a rebound suite is the one run
        merged.extend(globals()[f"suite_{name}"](**kwargs))
    return merged
