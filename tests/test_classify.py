import pytest

from secgenus.classify import (
    AdjunctionLabel,
    DeclaredInvariants,
    classify,
    classify_variety,
    invariants_from_variety,
    validate_invariants,
)
from secgenus.errors import AbstainError, InputError
from secgenus.variety import NEG_INF


def test_validate_monotonicity_violation():
    inv = DeclaredInvariants(n=4, kappa={3: NEG_INF, 2: 0})
    report = validate_invariants(inv)
    assert not report.passed  # kappa(K+2L) <= kappa(K+3L) is broken


def test_validate_all_big():
    inv = DeclaredInvariants(n=4, kappa={1: 4, 2: 4, 3: 4})
    assert validate_invariants(inv).passed


def test_validate_range():
    inv = DeclaredInvariants(n=4, kappa={1: 5})
    assert not validate_invariants(inv).passed
    with pytest.raises(InputError):
        classify(inv)


def test_classify_low_group_and_refinement():
    base = DeclaredInvariants(n=4, kappa={1: NEG_INF, 2: NEG_INF, 3: NEG_INF})
    label = classify(base)
    assert label.group == "1-7.4"
    assert label.certainty == "coarse-group"
    assert label.to_string() == "1-7.4"
    fine = DeclaredInvariants(n=4, kappa=dict(base.kappa), fine_type="1")
    label = classify(fine)
    assert label.exact == "1" and label.to_string() == "1" and label.certainty == "exact"


def test_classify_mukai():
    inv = DeclaredInvariants(n=4, kappa={1: NEG_INF, 2: 0, 3: 4})
    label = classify(inv)
    assert label.to_string() == "7.5" and label.certainty == "exact"


def test_classify_high_group_with_th2():
    inv = DeclaredInvariants(n=4, kappa={1: 4, 2: 4, 3: 4})
    label = classify(inv)
    assert label.group == "7.6-7.9"
    assert label.th2 == "TH2-1"
    assert label.to_string() == "TH2-1"


def test_classify_th2_negative_branch():
    inv = DeclaredInvariants(n=4, kappa={1: NEG_INF, 2: 2})
    label = classify(inv)
    assert label.th2 == "TH2-2"
    assert label.to_string() == "TH2-2"
    terminal = DeclaredInvariants(n=4, kappa={1: NEG_INF, 2: 4}, fine_type="4.6.1")
    label = classify(terminal)
    assert label.th2 == "TH2-2.2"
    assert label.exact == "4.6.1"


def test_classify_th2_low_list_branch():
    inv = DeclaredInvariants(n=4, kappa={1: NEG_INF, 2: 2}, fine_type="7.7")
    label = classify(inv)
    assert label.th2 == "TH2-2.1"


def test_classify_abstains_without_kappa():
    with pytest.raises(AbstainError):
        classify(DeclaredInvariants(n=4, kappa={}))


def test_classify_fine_type_consistency():
    with pytest.raises(InputError):
        classify(DeclaredInvariants(n=4, kappa={2: 4}, fine_type="1"))
    with pytest.raises(InputError):
        classify(DeclaredInvariants(n=4, kappa={1: 0, 2: 4}, fine_type="4.7"))


def test_classify_dimension_three():
    inv = DeclaredInvariants(n=3, kappa={1: NEG_INF})
    label = classify(inv)
    assert label.group == "1-7.4" and label.th2 is None


def test_catalog_entries(catalog):
    x6 = catalog["X6"]
    assert classify_variety(x6, x6.divisor("1H")).to_string() == "TH2-1"
    a4 = catalog["A4"]
    assert classify_variety(a4, a4.divisor("1L")).to_string() == "TH2-1"
    p4 = catalog["P4"]
    assert classify_variety(p4, p4.divisor("1H")).to_string() == "1"
    q4 = catalog["Q4"]
    assert classify_variety(q4, q4.divisor("1H")).to_string() == "2"
    p1xp3 = catalog["P1xP3"]
    assert classify_variety(p1xp3, p1xp3.divisor("1a+1b")).to_string() == "3"
    p2xp2 = catalog["P2xP2"]
    assert classify_variety(p2xp2, p2xp2.divisor("1a+1b")).to_string() == "4"
    x4 = catalog["X4"]
    assert classify_variety(x4, x4.divisor("1H")).to_string() == "7.5"
    x5 = catalog["X5"]
    assert classify_variety(x5, x5.divisor("1H")).to_string() == "TH2-1"


def test_catalog_abstains_for_undeclared_polarization(x6):
    with pytest.raises(AbstainError):
        classify_variety(x6, x6.divisor("2H"))


def test_ray_surrogate_matches_declared_labels(catalog):
    # where K is a multiple of the polarization ray, the kappa of K + aL is
    # decided by the sign of the multiple; the declarations must agree
    for name in ("P4", "Q4", "X3", "X4", "X5", "X6", "X7", "A4"):
        v = catalog[name]
        k_coeff = v.canonical.coeffs[0]
        surrogate = {}
        for a in (1, 2, 3):
            c = k_coeff + a
            surrogate[a] = v.dim if c > 0 else (0 if c == 0 else NEG_INF)
        declared = v.declaration_for(v.polarization).kappa
        assert declared == surrogate, name
        # and the label computed from the surrogate matches the declared route
        by_surrogate = classify(
            DeclaredInvariants(
                n=v.dim,
                kappa=surrogate,
                fine_type=v.declaration_for(v.polarization).fine_type,
            )
        )
        assert by_surrogate.to_string() == classify_variety(v, v.polarization).to_string()


def test_label_strings():
    label = AdjunctionLabel(group="7.6-7.9", exact=None, th2=None, certainty="coarse-group")
    assert label.to_string() == "7.6-7.9"


def test_classify_reads_the_rules_validate_invariants_reports(monkeypatch):
    from itertools import product

    from secgenus.report import VerificationReport

    rows = []
    original = VerificationReport.add

    def counting_add(self, *args, **kwargs):
        rows.append(args[0])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(VerificationReport, "add", counting_add)
    for n in (2, 3, 4):
        values = (None, NEG_INF, 0, 2, n, n + 1)
        for kappas, fine in product(product(values, repeat=3), (None, "1", "7.5", "4.2", "9")):
            inv = DeclaredInvariants(n=n, kappa=dict(zip((1, 2, 3), kappas)), fine_type=fine)
            failed = "; ".join(c.name for c in validate_invariants(inv).failures)
            before = len(rows)
            try:
                outcome = classify(inv)
            except (AbstainError, InputError) as exc:
                outcome = exc
            assert len(rows) == before  # classify builds no report
            if failed:
                assert isinstance(outcome, InputError)
                assert str(outcome) == f"invalid declared invariants: {failed}"
            else:
                assert not str(outcome).startswith("invalid declared invariants")
    assert rows  # the counter saw validate_invariants' rows
