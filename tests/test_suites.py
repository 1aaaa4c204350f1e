import dataclasses
import sys

import pytest

from secgenus import binpoly, suites
from secgenus.errors import InputError
from secgenus.suites import (
    SUITE_NAMES,
    run_suites,
    suite_bounds,
    suite_closed,
    suite_jumps,
    suite_integrality,
    suite_serre,
    suite_c2bound,
)


def test_every_named_suite_passes():
    report = run_suites(list(SUITE_NAMES), draws=6, seed=5, m_max=6)
    assert report.passed, report.to_table()
    assert report.summary()["failed"] == 0


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suites(["nope"])


def test_jumps_suite_covers_nef_adjoint_entries():
    report = suite_jumps(m_max=4)
    names = {c.name.split(" ")[0] for c in report.checks}
    assert names == {"X5", "X6", "X7", "A4"}
    assert report.passed


def test_bounds_suite_covers_kappa_nonnegative_entries():
    report = suite_bounds(m_max=6)
    assert report.passed
    text = report.to_table()
    for name in ("X6", "X7", "A4"):
        assert name in text


def test_tp1_suite_reports_alternative_without_asserting():
    report = suite_c2bound(draws=10, seed=2)
    assert report.passed
    assert any("reported, not asserted" in c.note for c in report.checks if c.note)


def test_integrality_and_closed_and_serre():
    assert suite_integrality(draws=3, seed=1).passed
    assert suite_closed(draws=3, seed=1).passed
    assert suite_serre(draws=5, seed=1).passed


def test_integrality_suite_interpolates_nothing(monkeypatch):
    # chi_multi substitutes into the compiled chi; no oracle grid is built
    original = binpoly.coefficients_from_oracle
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "coefficients_from_oracle", None)
        if name.startswith("secgenus") and held is original:
            monkeypatch.setattr(module, "coefficients_from_oracle", counted)
    report = suite_integrality()
    assert report.passed and len(report.checks) == 160
    assert calls == []
    assert suite_serre(draws=1).passed
    assert calls  # the counter sees the serre cross-check's interpolations


@pytest.mark.parametrize(
    "name", ["difference", "jumps", "additivity", "bounds", "closed", "g0", "serre"]
)
def test_suite_records_model_error_as_failed_check(x6, name):
    # c2.H^2 = 91 instead of 90 makes chi(-1H) = 145/24, a ModelError on evaluation
    planted = dataclasses.replace(x6, c2_pairings={(2,): 91})
    report = getattr(suites, f"suite_{name}")([planted])
    failed = report.failures
    assert failed, report.to_table()
    assert all("on X6 is not an integer" in c.actual for c in failed)


def test_every_suite_records_a_missing_monomial_as_failed_checks(catalog):
    # every chi and every pairing through (4, 0) raises ModelError on this model
    p2xp2 = catalog["P2xP2"]
    form = {exps: val for exps, val in p2xp2.intersection_form.items() if exps != (4, 0)}
    broken = dataclasses.replace(p2xp2, intersection_form=form)
    for name in ("difference", "additivity", "integrality", "closed", "c2bound", "g0", "serre"):
        report = getattr(suites, f"suite_{name}")([broken])
        assert report.failures, name
        assert all("missing monomial (4, 0)" in c.actual for c in report.failures), name
