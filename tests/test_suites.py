import functools
import hashlib
import inspect
import random
import sys

import pytest

from secgenus import adjoint, binpoly, hrr, suites
from secgenus.errors import AbstainError, InputError, ModelError
from secgenus.suites import (
    SUITE_ARGUMENTS,
    SUITE_NAMES,
    run_suites,
    suite_additivity,
    suite_bounds,
    suite_closed,
    suite_jumps,
    suite_integrality,
    suite_serre,
    suite_c2bound,
)
from secgenus.variety import _non_integer_point, validate


def _x6_c2_91(x6):
    # c2.H^2 = 91 instead of 90 makes chi(-1H) = 145/24, a ModelError on evaluation
    return x6.replace(c2_pairings={(2,): 91})


def _p2xp2_without_40(catalog):
    # refused when built: no suite can be given a model with a gap in a table
    p2xp2 = catalog["P2xP2"]
    form = {exps: val for exps, val in p2xp2.intersection_form.items() if exps != (4, 0)}
    return p2xp2.replace(intersection_form=form)


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
    assert suite_integrality().passed
    assert suite_closed(draws=3, seed=1).passed
    assert suite_serre(draws=5, seed=1).passed


def test_integrality_suite_interpolates_nothing(monkeypatch):
    # the lattice rule decides every expansion of a consistent catalog, so no
    # oracle grid is built
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
    assert report.passed and len(report.checks) == 10
    assert calls == []
    assert suite_serre(draws=1).passed
    assert calls  # the counter sees the serre cross-check's interpolations


@pytest.mark.parametrize(
    "name", ["difference", "jumps", "additivity", "bounds", "closed", "g0", "serre"]
)
def test_suite_records_model_error_as_failed_check(x6, name):
    planted = _x6_c2_91(x6)
    report = getattr(suites, f"suite_{name}")([planted])
    failed = report.failures
    assert failed, report.to_table()
    assert all("on X6 is not an integer" in c.actual for c in failed)


# SHA-256 of each suite's JSON report on the X6 plant above, each suite given
# those of draws=4, seed=5 and m_max=6 it takes.  They pin the name, inputs,
# expected and actual text of every failure record.  The P2xP2 plant is refused
# when built (None), so no suite reports on it; jumps and bounds never had it.
PLANTED_SHA256 = {
    ("X6", "difference"): "60e542ef89936e8168ebcdb5c6a968d28fbbfaf99b40c904ac958b7574b3af9e",
    ("X6", "jumps"): "808e0b5012aa8c5782e1c0b9b00af16f8e7ee20c3b9f242d38262cb672e69eac",
    ("X6", "additivity"): "d063849c7867b8caa962acc1d7d2bfd281bfc9490429597fcfc9245eea489f3e",
    ("X6", "bounds"): "adb458e849d83b0668aadfe4ad8e1737705f658cc495e9d5e3fdb69839ba452e",
    ("X6", "integrality"): "1041dc0d6b18b751dc63a06fcb927561cf40fc4a76774201e539f6ad6226db48",
    ("X6", "closed"): "08cd19e4b2f538c528e6278cd5bf72e0565825e337c9b16a0d7680aa8b81f833",
    ("X6", "c2bound"): "8979e62cb013a1088caa837f0c02a723909f28f80cd92fca34e92f27f3ca4cd5",
    ("X6", "g0"): "93d364d4369ebd7202e536291629eb8597276efe1063cd14b371518a33f0b1ef",
    ("X6", "serre"): "971ac476fbf96524ac57e5ea9a41e4ffa741c7066b60ab4a2a5b124a6a4bf6b8",
    **{
        ("P2xP2", name): None
        for name in ("difference", "additivity", "integrality", "closed", "c2bound", "g0", "serre")
    },
}


@pytest.mark.parametrize("model, name", sorted(PLANTED_SHA256))
def test_planted_model_reports_are_pinned(catalog, model, name):
    if PLANTED_SHA256[model, name] is None:
        refusal = r"^P2xP2 intersection table is missing monomial \(4, 0\)$"
        with pytest.raises(InputError, match=refusal):
            _p2xp2_without_40(catalog)
        return
    planted = _x6_c2_91(catalog["X6"])
    suite = getattr(suites, f"suite_{name}")
    takes = inspect.signature(suite).parameters
    kwargs = {k: x for k, x in {"draws": 4, "seed": 5, "m_max": 6}.items() if k in takes}
    report = suite([planted], **kwargs)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == PLANTED_SHA256[model, name]


@pytest.mark.parametrize(
    "name, entry",
    [
        ("jumps", "P2xP2"),  # no polarization
        ("bounds", "P2xP2"),
        ("closed", "P3"),  # not a 4-fold
        ("c2bound", "P3"),
        ("integrality", None),  # no entry at all
        ("serre", None),
        ("additivity", None),
        ("additivity", "P1"),  # no index 1 <= i <= dim - 1
        ("g0", None),
    ],
)
def test_suite_without_usable_entry_abstains(catalog, name, entry):
    report = getattr(suites, f"suite_{name}")([catalog[entry]] if entry else [])
    assert len(report.checks) == 1 and report.checks[0].abstained
    assert report.checks[0].name.startswith(f"{name}: no ")


@pytest.mark.parametrize("entry", ["P1", "P2", "P3"])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_reports_on_a_low_dimensional_entry(catalog, name, entry):
    # every model the library accepts gets a report, never an exception
    report = getattr(suites, f"suite_{name}")([catalog[entry]])
    assert report.checks and report.summary()["failed"] == 0, (name, entry)


@pytest.mark.parametrize("kwargs", [{"draws": 0}, {"draws": -3}, {"m_max": 1}, {"m_max": -2}])
def test_out_of_range_counts_rejected(kwargs):
    with pytest.raises(InputError, match="must be at least"):
        run_suites(list(SUITE_NAMES), **kwargs)


@pytest.mark.parametrize(
    "names, kwargs, message",
    [
        (["jumps"], {"seed": 12345}, "a seed does not apply to jumps: it draws nothing"),
        (["jumps", "bounds"], {"seed": 3}, "a seed does not apply to jumps+bounds"),
        (["g0"], {"m_max": 6}, "m_max does not apply to g0"),
        (["g0"], {"m_max": 1}, "m_max does not apply to g0"),  # before its range is read
        (["closed", "serre"], {"m_max": 4}, "m_max does not apply to closed+serre"),
        (["bounds"], {"draws": 3}, "a draw count does not apply to bounds: it draws nothing"),
    ],
)
def test_arguments_no_selected_suite_takes_rejected(names, kwargs, message):
    with pytest.raises(InputError, match=message.replace("+", r"\+")):
        run_suites(names, **kwargs)


def test_arguments_taken_by_one_selected_suite_accepted():
    # jumps reads m_max (4 entries, m = 2..4), g0 reads the seed and the draw count
    report = run_suites(["jumps", "g0"], seed=3, m_max=4, draws=2)
    assert report.summary() == {"total": 12 + 2, "passed": 14, "failed": 0, "abstained": 0}
    assert run_suites(["jumps"], m_max=3).to_json() == suite_jumps(m_max=3).to_json()


def _abstain(*args, **kwargs):
    raise AbstainError("no certified route (test)")


@pytest.mark.parametrize("name", ["difference", "jumps", "bounds"])
def test_abstentions_keep_the_check_name_and_inputs(monkeypatch, x6, name):
    run = functools.partial(getattr(suites, f"suite_{name}"), [x6])
    if name == "difference":
        run = functools.partial(run, draws=3, seed=5)
    passed = run()
    for module_name, module in list(sys.modules.items()):
        held = getattr(module, "h0_certified", None)
        if module_name.startswith("secgenus") and held is not None:
            monkeypatch.setattr(module, "h0_certified", _abstain)
    abstained = run()

    def rows(report):
        # check_multiple_bound's h0-bound and recursion rows name their own abstentions
        skip = ("h0-bound[", "recursion[")
        return [c for c in report.checks if not c.name.startswith(skip)]

    assert passed.passed and not passed.abstentions and not abstained.failures
    assert [(c.name, c.inputs) for c in rows(abstained)] == [
        (c.name, c.inputs) for c in rows(passed)
    ]
    assert any(c.abstained and "no certified route" in c.note for c in rows(abstained))


def test_run_suites_dispatches_through_the_module(monkeypatch):
    seen = []
    original = suites.suite_g0

    @functools.wraps(original)
    def counted(*args, **kwargs):
        seen.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, "suite_g0", counted)
    run_suites(["g0"])
    run_suites(["g0", "jumps"], draws=3, seed=5)
    assert seen == [{}, {"draws": 3, "seed": 5}]


def test_suite_argument_table_matches_the_signatures():
    # run_suites reads what each suite takes from this table, not from the suite's
    # signature, so a suite rebound by a (*args, **kwargs) wrapper still gets its arguments
    assert SUITE_NAMES == tuple(SUITE_ARGUMENTS)
    for name, takes in SUITE_ARGUMENTS.items():
        params = inspect.signature(getattr(suites, f"suite_{name}")).parameters
        assert list(params) == ["entries", *takes], name


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_run_suites_keeps_each_suites_own_defaults(name):
    assert run_suites([name]).to_json() == getattr(suites, f"suite_{name}")().to_json()


def test_additivity_default_is_the_verify_count():
    assert len(run_suites(["additivity"]).checks) == len(suite_additivity().checks) == 25


_OFFSETS = (-24, -3, -2, -1, 1, 2, 3, 24)


def _single_entry_plants(catalog, names, fields=("intersection_form", "c2_pairings")):
    """Each model with one monomial of one table changed by each of _OFFSETS."""
    plants = []
    for name in names:
        v = catalog[name]
        for field in fields:
            table = getattr(v, field)
            for key in sorted(table):
                for offset in _OFFSETS:
                    planted = {**table, key: table[key] + offset}
                    plants.append(v.replace(**{field: planted}))
    return plants


def _expands(v, bundles):
    # the full binomial-basis expansion of the bundles' pull-back of chi
    try:
        hrr.chi_multi(v, bundles)
    except ModelError:
        return False
    return True


def test_lattice_rule_decides_chi_expansions_as_chi_multi_does(catalog):
    # a pull-back of a chi integer-valued on the lattice is integer-valued, so no
    # draw fails to expand on a plant the lattice rule passes
    plants = _single_entry_plants(catalog, ("P1xP3", "P2xP2", "X6", "P4", "A4"))
    assert len(plants) == 176
    assert sum(_non_integer_point(v) is not None for v in plants) == 130
    rng = random.Random(16)
    outcomes = {True: 0, False: 0}
    for v in plants:
        integral = _non_integer_point(v) is None
        g = len(v.generators)
        for _ in range(6):
            arity = rng.randint(1, v.dim)
            bundles = [suites._draw_class(rng, g, -2, 2) for _ in range(arity)]
            expanded = _expands(v, bundles)
            assert expanded or not integral, (v, bundles)
            outcomes[expanded] += 1
    assert outcomes[True] and outcomes[False]


def test_integrality_kills_at_least_what_its_seeded_draws_killed(catalog):
    # every monomial of every entry moved by each of _OFFSETS (296 plants), or dropped
    # (37).  The suite's former 8 chi-expansion and 8 parity draws per entry killed 236
    # of these 333; now the suite fails 200 shifts and the constructor refuses every drop.
    shifted = _single_entry_plants(catalog, catalog)
    assert len(shifted) == 296
    failed = sum(not suite_integrality([v]).passed for v in shifted)
    assert failed == 200
    refused = 0
    for v in catalog.values():
        for field, what in (("intersection_form", "intersection"), ("c2_pairings", "c2")):
            table = getattr(v, field)
            for key in table:
                kept = {k: x for k, x in table.items() if k != key}
                with pytest.raises(InputError, match=rf"^{v.name} {what} table is missing"):
                    v.replace(**{field: kept})
                refused += 1
    assert refused == 37
    assert failed + refused >= 236


def _integer_on_polarization_ray(v):
    # chi(tL) an integer at t = 0..n: a test on the polarization ray alone
    try:
        [hrr.chi_divisor(v, t * v.polarization) for t in range(v.dim + 1)]
    except ModelError:
        return False
    return True


def test_validate_fails_integrality_on_exactly_the_plants_off_the_lattice(catalog):
    plants = _single_entry_plants(catalog, ("P1xP3", "P2xP2", "X6", "P4", "A4"))
    rows = [
        next(c for c in validate(v).checks if c.name == "chi expansion integral") for v in plants
    ]
    assert [c.passed for c in rows] == [_non_integer_point(v) is None for v in plants]
    failing = [v for v, c in zip(plants, rows) if not c.passed]
    assert len(failing) == 130
    # a wrong table whose chi stays integral along the diagonal ray L = (1, 1)
    ray_only = [v.name for v in failing if _integer_on_polarization_ray(v)]
    assert len(ray_only) == 12 and set(ray_only) == {"P1xP3", "P2xP2"}


def test_no_suite_calls_chi_multi(monkeypatch, x6):
    # verify decides integrality on the lattice; chi_multi serves chi --expand
    original = hrr.chi_multi

    def refused(*args, **kwargs):
        raise AssertionError("a suite called chi_multi")

    for name, module in list(sys.modules.items()):
        if name.startswith("secgenus") and getattr(module, "chi_multi", None) is original:
            monkeypatch.setattr(module, "chi_multi", refused)
    assert run_suites(list(SUITE_NAMES)).passed
    for name in SUITE_NAMES:
        getattr(suites, f"suite_{name}")([_x6_c2_91(x6)])
    failed = suite_integrality([_x6_c2_91(x6)]).failures
    assert [(c.name, c.actual) for c in failed] == [
        ("X6 chi expansion integral", "chi(1H) = 145/24")
    ]


def test_difference_records_a_class_the_model_makes_not_big_as_failed_check(catalog):
    # on these plants an orthant class that suite_difference draws as nef and big
    # has D^4 <= 0; that is a failed check, not an InputError out of the suite
    refused = 0
    for v in _single_entry_plants(catalog, ("P1xP3", "P2xP2"), ("intersection_form",)):
        report = suites.suite_difference([v])
        failed = [c for c in report.failures if "is not nef and big on" in c.actual]
        if failed:
            refused += 1
            assert all(c.expected == "a consistent model" for c in failed)
            assert all(c.actual.endswith(f"on {v.name}") for c in failed)
    assert refused == 39
    p4 = catalog["P4"]
    with pytest.raises(InputError, match="not nef and big"):
        adjoint.DifferenceRequest.build(p4, [p4.divisor("0H")], p4.zero())
