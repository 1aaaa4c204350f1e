import pytest

from secgenus.classify import AdjunctionLabel, classify, classify_variety, validate_invariants
from secgenus.errors import AbstainError, InputError
from secgenus.variety import NEG_INF, AdjointDeclaration


def test_validate_monotonicity_violation():
    report = validate_invariants(AdjointDeclaration({3: NEG_INF, 2: 0}), 4)
    assert not report.passed  # kappa(K+2L) <= kappa(K+3L) is broken


def test_validate_all_big():
    assert validate_invariants(AdjointDeclaration({1: 4, 2: 4, 3: 4}), 4).passed


def test_validate_range():
    decl = AdjointDeclaration({1: 5})
    assert not validate_invariants(decl, 4).passed
    with pytest.raises(InputError):
        classify(decl, 4)


def test_classify_low_group_and_refinement():
    base = AdjointDeclaration({1: NEG_INF, 2: NEG_INF, 3: NEG_INF})
    label = classify(base, 4)
    assert label.group == "1-7.4"
    assert label.certainty == "coarse-group"
    assert label.to_string() == "1-7.4"
    label = classify(AdjointDeclaration(dict(base.kappa), "1"), 4)
    assert label.exact == "1" and label.to_string() == "1" and label.certainty == "exact"


def test_classify_mukai():
    label = classify(AdjointDeclaration({1: NEG_INF, 2: 0, 3: 4}), 4)
    assert label.to_string() == "7.5" and label.certainty == "exact"


def test_classify_high_group_with_th2():
    label = classify(AdjointDeclaration({1: 4, 2: 4, 3: 4}), 4)
    assert label.group == "7.6-7.9"
    assert label.th2 == "TH2-1"
    assert label.to_string() == "TH2-1"


def test_classify_th2_negative_branch():
    label = classify(AdjointDeclaration({1: NEG_INF, 2: 2}), 4)
    assert label.th2 == "TH2-2"
    assert label.to_string() == "TH2-2"
    label = classify(AdjointDeclaration({1: NEG_INF, 2: 4}, "4.6.1"), 4)
    assert label.th2 == "TH2-2.2"
    assert label.exact == "4.6.1"


def test_classify_th2_low_list_branch():
    label = classify(AdjointDeclaration({1: NEG_INF, 2: 2}, "7.7"), 4)
    assert label.th2 == "TH2-2.1"


def test_classify_abstains_without_kappa():
    with pytest.raises(AbstainError):
        classify(AdjointDeclaration({}), 4)


def test_classify_fine_type_consistency():
    with pytest.raises(InputError):
        classify(AdjointDeclaration({2: 4}, "1"), 4)
    with pytest.raises(InputError):
        classify(AdjointDeclaration({1: 0, 2: 4}, "4.7"), 4)


def test_classify_dimension_three():
    label = classify(AdjointDeclaration({1: NEG_INF}), 3)
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
        fine = v.declaration_for(v.polarization).fine_type
        by_surrogate = classify(AdjointDeclaration(surrogate, fine), v.dim)
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
            decl = AdjointDeclaration(dict(zip((1, 2, 3), kappas)), fine)
            failed = "; ".join(c.name for c in validate_invariants(decl, n).failures)
            before = len(rows)
            try:
                outcome = classify(decl, n)
            except (AbstainError, InputError) as exc:
                outcome = exc
            assert len(rows) == before  # classify builds no report
            if failed:
                assert isinstance(outcome, InputError)
                assert str(outcome) == f"invalid declared invariants: {failed}"
            else:
                assert not str(outcome).startswith("invalid declared invariants")
    assert rows  # the counter saw validate_invariants' rows
