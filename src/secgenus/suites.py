"""Seeded verification suites over the catalog.

Each suite turns one family of identities or bounds into a
``VerificationReport``: exact integer (or exact rational) comparisons
only, with seeded draws so a fixed seed reproduces the report byte for
byte.  Checks whose inputs cannot be certified are recorded as
abstentions, never fabricated.
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
    FOURFOLD_NAMES,
    DivisorClass,
    VarietyData,
    intersection_number,
    standard_catalog,
)

SUITE_NAMES = (
    "difference",
    "jumps",
    "additivity",
    "bounds",
    "integrality",
    "closed",
    "c2bound",
    "g0",
    "serre",
)


@lru_cache(maxsize=1)
def get_catalog() -> dict[str, VarietyData]:
    """One shared catalog instance per process."""
    return standard_catalog()


def fourfold_entries() -> list[VarietyData]:
    catalog = get_catalog()
    return [catalog[name] for name in FOURFOLD_NAMES]


def _draw_class(rng: random.Random, n_gens: int, lo: int, hi: int) -> DivisorClass:
    return DivisorClass(tuple(rng.randint(lo, hi) for _ in range(n_gens)))


def suite_difference(
    entries: list[VarietyData] | None = None, draws: int = 25, seed: int = 7
) -> VerificationReport:
    """Difference-formula exactness: genus side equals section-count side."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="difference")
    catalog = get_catalog()

    # Fixed anchor: one nef-and-big bundle of degree six on P4.
    p4 = catalog["P4"]
    anchor = adjoint.DifferenceRequest.build(p4, [p4.divisor("6H")], p4.divisor("1H"))
    rhs = adjoint.difference_rhs(anchor)
    lhs = adjoint.difference_lhs(anchor)
    report.add(
        "anchor P4 [6H] + H",
        rhs == lhs == 10,
        expected=10,
        actual=f"rhs={rhs} lhs={lhs}",
        inputs={"variety": "P4", "big": "6H", "nef": "1H"},
    )

    rng = random.Random(seed)
    for v in entries:
        g = len(v.generators)
        for k in range(draws):
            m = rng.randint(1, 3)
            bigs = [_draw_class(rng, g, 1, 3) for _ in range(m)]
            nef = _draw_class(rng, g, 0, 2)
            name = f"{v.name} draw {k} (m={m})"
            inputs = _draw_inputs(v, bigs, nef)
            try:
                req = adjoint.DifferenceRequest.build(v, bigs, nef)
                rhs = adjoint.difference_rhs(req)
                lhs = adjoint.difference_lhs(req)
            except AbstainError as exc:
                report.add(f"{v.name} draw {k}", None, note=str(exc), inputs=inputs)
                continue
            except ModelError as exc:
                _model_failure(report, name, exc, inputs)
                continue
            report.add(name, rhs == lhs, expected=lhs, actual=rhs, inputs=inputs)
    return report


def _model_failure(
    report: VerificationReport, name: str, exc: ModelError, inputs: dict | None = None
) -> None:
    """Record a model inconsistency met while computing a check as that check failing."""
    report.add(name, False, expected="a consistent model", actual=str(exc), inputs=inputs)


def _draw_inputs(v: VarietyData, bigs: list[DivisorClass], nef: DivisorClass) -> dict:
    return {
        "variety": v.name,
        "big": ",".join(v.divisor_string(b) for b in bigs),
        "nef": v.divisor_string(nef),
    }


def _nef_adjoint_entries(entries: list[VarietyData]) -> list[VarietyData]:
    return [v for v in entries if v.polarization and v.is_nef(v.canonical + v.polarization)]


def suite_jumps(entries: list[VarietyData] | None = None, m_max: int = 6) -> VerificationReport:
    """Consecutive-multiple differences match the genus-side specialisation."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="jumps")
    for v in _nef_adjoint_entries(entries):
        if v.dim != 4:
            continue
        ell = v.polarization
        kl = v.canonical + ell
        for m in range(2, m_max + 1):
            inputs = {"variety": v.name, "L": v.divisor_string(ell), "m": m}
            try:
                rhs = adjoint.jump_rhs(v, ell, m)
                upper, _ = hrr.h0_certified(v, m * kl)
                lower, _ = hrr.h0_certified(v, (m - 1) * kl)
            except AbstainError as exc:
                report.add(f"{v.name} m={m}", None, note=str(exc))
                continue
            except ModelError as exc:
                _model_failure(report, f"{v.name} m={m}", exc, inputs)
                continue
            report.add(
                f"{v.name} m={m}",
                rhs == upper - lower,
                expected=upper - lower,
                actual=rhs,
                inputs=inputs,
            )
    return report


def suite_additivity(
    entries: list[VarietyData] | None = None, draws: int = 100, seed: int = 11
) -> VerificationReport:
    """Additivity residual vanishes on seeded draws across the catalog.

    The residual is zero for any chi, so this suite checks the genus
    code's inclusion-exclusion, not the model: a model with a wrong chi
    fails ``closed`` and ``g0`` but passes here.
    """
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="additivity")
    rng = random.Random(seed)
    for k in range(draws):
        v = entries[rng.randrange(len(entries))]
        g = len(v.generators)
        i = rng.randint(1, v.dim - 1)
        a = _draw_class(rng, g, -2, 2)
        b = _draw_class(rng, g, -2, 2)
        rest = [_draw_class(rng, g, -2, 2) for _ in range(v.dim - i - 1)]
        inputs = {
            "variety": v.name,
            "i": i,
            "A": v.divisor_string(a),
            "B": v.divisor_string(b),
            "rest": ",".join(v.divisor_string(r) for r in rest),
        }
        try:
            residual = genus.additivity_residual(v, i, a, b, rest)
        except ModelError as exc:
            _model_failure(report, f"draw {k}: {v.name} i={i}", exc, inputs)
            continue
        report.add(
            f"draw {k}: {v.name} i={i}", residual == 0, expected=0, actual=residual, inputs=inputs
        )
    return report


def suite_bounds(entries: list[VarietyData] | None = None, m_max: int = 10) -> VerificationReport:
    """Recursion bound, second-multiple expression, and superadditivity."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="bounds")
    threshold = Fraction(111, 192)
    for v in entries:
        if v.dim != 4 or v.polarization is None:
            continue
        if v.kappa_x is None or v.kappa_x < 0:
            continue
        ell = v.polarization
        kl = v.canonical + ell
        if not v.is_nef(kl):
            continue
        try:
            report.extend(adjoint.check_multiple_bound(v, ell, m_max))
        except ModelError as exc:
            _model_failure(report, f"{v.name} recursion bound", exc)

        try:
            expr = adjoint.second_jump_expression(v, ell)
            report.add(
                f"{v.name} second-multiple expression",
                expr >= threshold,
                expected=f">= {threshold}",
                actual=expr,
                inputs={"variety": v.name, "L": v.divisor_string(ell)},
            )
        except ModelError as exc:
            _model_failure(report, f"{v.name} second-multiple expression", exc)
        try:
            h2, _ = hrr.h0_certified(v, 2 * kl)
            h1, _ = hrr.h0_certified(v, kl)
            report.add(
                f"{v.name} h0(2(K+L)) - h0(K+L) >= 1",
                h2 - h1 >= 1,
                expected=">= 1",
                actual=h2 - h1,
            )
        except AbstainError as exc:
            report.add(f"{v.name} second multiple", None, note=str(exc))
        except ModelError as exc:
            _model_failure(report, f"{v.name} h0(2(K+L)) - h0(K+L) >= 1", exc)

        for a, b in ((1, 1), (1, 2), (2, 2), (2, 3)):
            try:
                hab, _ = hrr.h0_certified(v, (a + b) * kl)
                ha, _ = hrr.h0_certified(v, a * kl)
                hb, _ = hrr.h0_certified(v, b * kl)
            except AbstainError as exc:
                report.add(f"{v.name} superadditivity a={a} b={b}", None, note=str(exc))
                continue
            except ModelError as exc:
                _model_failure(report, f"{v.name} superadditivity a={a} b={b}", exc)
                continue
            report.add(
                f"{v.name} superadditivity a={a} b={b}",
                hab >= ha + hb - 1,
                expected=f">= {ha + hb - 1}",
                actual=hab,
            )
    return report


def suite_integrality(
    entries: list[VarietyData] | None = None, draws: int = 8, seed: int = 13
) -> VerificationReport:
    """Integer binomial-basis coefficients of chi on seeded bundles, and evenness of (K+3L)L^3.

    A model whose chi is not integer-valued fails its "chi expansion" checks.
    """
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="integrality")
    rng = random.Random(seed)
    for v in entries:
        g = len(v.generators)
        for k in range(draws):
            arity = rng.randint(1, v.dim)
            bundles = [_draw_class(rng, g, -2, 2) for _ in range(arity)]
            try:
                hrr.chi_multi(v, bundles)
                passed, actual = True, "ok"
            except ModelError as exc:
                passed, actual = False, str(exc)
            report.add(
                f"{v.name} chi expansion {k} (arity {arity})",
                passed,
                expected="integer coefficients",
                actual=actual,
                inputs={
                    "variety": v.name,
                    "bundles": ",".join(v.divisor_string(b) for b in bundles),
                },
            )
        if v.dim == 4:
            for k in range(draws):
                ample = _draw_class(rng, g, 1, 3)
                inputs = {"variety": v.name, "L": v.divisor_string(ample)}
                try:
                    value = intersection_number(v, [v.canonical + 3 * ample, ample, ample, ample])
                except ModelError as exc:
                    _model_failure(report, f"{v.name} parity draw {k}", exc, inputs)
                    continue
                report.add(
                    f"{v.name} parity draw {k}",
                    value % 2 == 0,
                    expected="even",
                    actual=value,
                    inputs=inputs,
                )
    return report


def suite_closed(
    entries: list[VarietyData] | None = None, draws: int = 10, seed: int = 17
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
            inputs = {
                "variety": v.name,
                "A": v.divisor_string(a),
                "B": v.divisor_string(b),
                "C": v.divisor_string(c),
            }
            try:
                closed = genus.g1_closed(v, a, b, c)
                defined = genus.g_i(v, 1, [a, b, c])
            except ModelError as exc:
                _model_failure(report, f"{v.name} g1 closed form {k}", exc, inputs)
                continue
            report.add(
                f"{v.name} g1 closed form {k}",
                closed == defined,
                expected=defined,
                actual=closed,
                inputs=inputs,
            )
        for k in range(draws):
            ell = _draw_class(rng, g, -2, 2)
            kl = v.canonical + ell
            inputs = {"variety": v.name, "L": v.divisor_string(ell)}
            try:
                closed = genus.g2_adjoint_closed(v, ell)
                defined = genus.g_i(v, 2, [kl, kl])
            except ModelError as exc:
                _model_failure(report, f"{v.name} g2 adjoint closed form {k}", exc, inputs)
                continue
            report.add(
                f"{v.name} g2 adjoint closed form {k}",
                closed == defined,
                expected=defined,
                actual=closed,
                inputs=inputs,
            )
    return report


def suite_c2bound(
    entries: list[VarietyData] | None = None, draws: int = 20, seed: int = 19
) -> VerificationReport:
    """Second-Chern-class lower bound on certified draws."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="c2bound")
    rng = random.Random(seed)
    for v in entries:
        if v.dim != 4:
            continue
        g = len(v.generators)
        checked = 0
        for _ in range(draws):
            ell = _draw_class(rng, g, 1, 6)
            try:
                if not v.is_nef_and_big(v.canonical + ell):
                    continue
                a1 = _draw_class(rng, g, 0, 3)
                a2 = _draw_class(rng, g, 0, 3)
                result = adjoint.c2_lower_bound_check(v, ell, a1, a2)
            except ModelError as exc:
                _model_failure(report, f"{v.name} c2 bound draw {checked}", exc)
                checked += 1
                continue
            alt = "holds" if result.holds_alt else "fails"
            report.add(
                f"{v.name} c2 bound draw {checked}",
                result.holds_main,
                expected=f">= {result.rhs_main}",
                actual=result.lhs,
                inputs={
                    "variety": v.name,
                    "L": v.divisor_string(ell),
                    "A1": v.divisor_string(a1),
                    "A2": v.divisor_string(a2),
                },
                note=f"alternative bound {alt} (reported, not asserted)",
            )
            checked += 1
        if checked == 0:
            report.add(
                f"{v.name} c2 bound",
                None,
                note="no draw with K + L nef and big; abstained",
            )
    return report


def suite_g0(
    entries: list[VarietyData] | None = None, draws: int = 50, seed: int = 23
) -> VerificationReport:
    """g_0 equals the intersection number of its bundles."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="g0")
    rng = random.Random(seed)
    for k in range(draws):
        v = entries[rng.randrange(len(entries))]
        g = len(v.generators)
        bundles = [_draw_class(rng, g, -2, 2) for _ in range(v.dim)]
        inputs = {
            "variety": v.name,
            "bundles": ",".join(v.divisor_string(b) for b in bundles),
        }
        try:
            left = genus.g_i(v, 0, bundles)
            right = intersection_number(v, bundles)
        except ModelError as exc:
            _model_failure(report, f"draw {k}: {v.name}", exc, inputs)
            continue
        report.add(f"draw {k}: {v.name}", left == right, expected=right, actual=left, inputs=inputs)
    return report


def suite_serre(
    entries: list[VarietyData] | None = None, draws: int = 20, seed: int = 29
) -> VerificationReport:
    """chi(K - D) = (-1)^n chi(D), plus equal-bundle re-expansion consistency."""
    entries = fourfold_entries() if entries is None else entries
    report = VerificationReport(title="serre")
    rng = random.Random(seed)
    for v in entries:
        g = len(v.generators)
        for k in range(draws):
            d = _draw_class(rng, g, -3, 3)
            inputs = {"variety": v.name, "D": v.divisor_string(d)}
            try:
                left = hrr.chi_divisor(v, v.canonical - d)
                right = (-1) ** v.dim * hrr.chi_divisor(v, d)
            except ModelError as exc:
                _model_failure(report, f"{v.name} duality draw {k}", exc, inputs)
                continue
            report.add(
                f"{v.name} duality draw {k}",
                left == right,
                expected=right,
                actual=left,
                inputs=inputs,
            )
        if v.polarization is not None:
            ell = v.polarization
            try:
                single = coefficients_from_oracle(
                    lambda t: hrr.chi_divisor(v, t * ell), 1, v.dim
                )
            except ModelError as exc:
                _model_failure(report, f"{v.name} equal-bundle chi^H", exc)
                continue
            for i in range(v.dim):
                try:
                    multi = genus.chi_H_i(v, i, [ell] * (v.dim - i))
                except ModelError as exc:
                    _model_failure(report, f"{v.name} equal-bundle chi_{i}^H", exc)
                    continue
                expected = int(single.coefficient((v.dim - i,)))
                report.add(
                    f"{v.name} equal-bundle chi_{i}^H",
                    multi == expected,
                    expected=expected,
                    actual=multi,
                )
    return report


# name -> (runner(draws, seed, m_max), draw count when none is given);
# a count of None marks a suite that draws nothing.
_SUITE_TABLE = {
    "difference": (lambda draws, seed, m_max: suite_difference(draws=draws, seed=seed), 25),
    "jumps": (lambda draws, seed, m_max: suite_jumps(m_max=max(m_max, 2)), None),
    "additivity": (lambda draws, seed, m_max: suite_additivity(draws=draws, seed=seed), 25),
    "bounds": (lambda draws, seed, m_max: suite_bounds(m_max=m_max), None),
    "integrality": (lambda draws, seed, m_max: suite_integrality(draws=draws, seed=seed), 8),
    "closed": (lambda draws, seed, m_max: suite_closed(draws=draws, seed=seed), 10),
    "c2bound": (lambda draws, seed, m_max: suite_c2bound(draws=draws, seed=seed), 20),
    "g0": (lambda draws, seed, m_max: suite_g0(draws=draws, seed=seed), 25),
    "serre": (lambda draws, seed, m_max: suite_serre(draws=draws, seed=seed), 20),
}


def run_suites(
    names: list[str], draws: int | None = None, seed: int = 7, m_max: int = 10
) -> VerificationReport:
    """Run the named suites in order; ``draws`` sets every drawing suite's count.

    Without ``draws`` each suite keeps its own count.  A draw count for a
    selection in which no suite draws is an input error.
    """
    unknown = [name for name in names if name not in _SUITE_TABLE]
    if unknown:
        raise InputError(f"unknown suite {unknown[0]!r}; choose from {SUITE_NAMES}")
    if draws is not None and all(_SUITE_TABLE[name][1] is None for name in names):
        raise InputError(f"a draw count does not apply to {'+'.join(names)}: it draws nothing")
    merged = VerificationReport(title="+".join(names))
    for name in names:
        run, default_draws = _SUITE_TABLE[name]
        merged.extend(run(default_draws if draws is None else draws, seed, m_max))
    return merged
